package static_test

import (
	"fmt"
	"testing"

	"wasabi/internal/spectest"
	"wasabi/internal/static"
)

var sinkProfile string

// TestProfileSmoke keeps the report surface honest: profiles render for every
// corpus module without panicking and count reachable blocks consistently.
func TestProfileSmoke(t *testing.T) {
	for _, c := range spectest.Corpus() {
		m := c.Module()
		p, err := static.Profile(m)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if p.NumFuncs != m.NumFuncs() {
			t.Fatalf("%s: profile counts %d funcs, module has %d", c.Name, p.NumFuncs, m.NumFuncs())
		}
		for _, fp := range p.Funcs {
			if fp.Reachable > fp.Blocks {
				t.Fatalf("%s: func %d has %d reachable of %d blocks", c.Name, fp.Idx, fp.Reachable, fp.Blocks)
			}
		}
		sinkProfile = fmt.Sprint(p)
	}
}
