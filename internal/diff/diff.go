// Package diff is the differential-execution harness: it runs one module's
// invocations through an independent reference semantics (internal/refinterp,
// a tree-walking interpreter over the decoded AST) and through the full
// production config matrix, then asserts that every configuration computed
// exactly what the reference computed — results, trap codes, and a final
// digest over linear memory, globals, and host-observed output.
//
// This is the paper's faithfulness property (an instrumented module computes
// exactly what the original computes) turned into an executable oracle: the
// reference shares no code with the threaded interpreter, the trampoline
// dispatch, the static-elision planner, or the stream encoder, so agreement
// across the matrix is evidence rather than tautology.
//
// The matrix:
//
//	plain    — uninstrumented threaded interpreter
//	hooked   — all-hooks trampoline instrumentation, no-op callback analysis
//	static   — same, on a WithStaticAnalysis engine (hook elision active)
//	stream   — all-event record encoding into a served stream
//	fuel     — fuel-guarded execution with an ample budget
//	relinked — "hooked" on threaded code an earlier instance of the same
//	           CompiledAnalysis compiled and ran, so no state may leak
//	           through code shared between instances
package diff

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/refinterp"
	"wasabi/internal/wasm"
)

// Invocation names one exported-function call of the module under test.
type Invocation struct {
	Entry string
	Args  []uint64
}

// Options configures one differential run.
type Options struct {
	// Invocations are applied in order to a single instance per config, so
	// state (globals, memory) carries across them identically everywhere.
	Invocations []Invocation

	// PrintF64 links an env.print_f64 host import on every side and folds
	// the printed values into the final digest (the PolyBench kernels use
	// printed intermediates as their faithfulness oracle).
	PrintF64 bool

	// Configs restricts the matrix to the named configs. Nil means all.
	Configs []string
}

// AllConfigs lists the production configurations in matrix order.
func AllConfigs() []string {
	return []string{"plain", "hooked", "static", "stream", "fuel", "relinked"}
}

// ampleFuel is the fuel budget for the fuel-guarded config: far beyond any
// corpus module's needs, so the guard instructions execute but never fire.
const ampleFuel = 1 << 40

// outcome is what one invocation produced under one configuration.
type outcome struct {
	results []uint64
	trap    string // trap code ("" when the call returned)
	err     string // non-trap error text ("" otherwise)
}

// runResult is everything one configuration produced for the module.
type runResult struct {
	instErr  string // instantiation error ("" on success)
	outcomes []outcome
	digest   [sha256.Size]byte
}

// Divergence records one disagreement between a configuration and the
// reference.
type Divergence struct {
	Config     string
	Invocation int // index into Options.Invocations; -1 for module-level
	Field      string
	Want, Got  string
}

func (d Divergence) String() string {
	where := "module"
	if d.Invocation >= 0 {
		where = fmt.Sprintf("invocation %d", d.Invocation)
	}
	return fmt.Sprintf("%s: %s %s: reference %s, got %s", d.Config, where, d.Field, d.Want, d.Got)
}

// ConfigVerdict is one configuration's comparison against the reference.
type ConfigVerdict struct {
	Name        string
	Divergences []Divergence
}

// OK reports whether the configuration agreed with the reference everywhere.
func (v ConfigVerdict) OK() bool { return len(v.Divergences) == 0 }

// Report is the outcome of a differential run across the matrix.
type Report struct {
	Configs []ConfigVerdict
}

// OK reports whether every configuration agreed with the reference.
func (r *Report) OK() bool {
	for _, v := range r.Configs {
		if !v.OK() {
			return false
		}
	}
	return true
}

// Divergences flattens every configuration's divergences.
func (r *Report) Divergences() []Divergence {
	var out []Divergence
	for _, v := range r.Configs {
		out = append(out, v.Divergences...)
	}
	return out
}

// String renders one per-config verdict line per configuration.
func (r *Report) String() string {
	var b strings.Builder
	for _, v := range r.Configs {
		if v.OK() {
			fmt.Fprintf(&b, "%-7s ok\n", v.Name)
			continue
		}
		fmt.Fprintf(&b, "%-7s DIVERGED\n", v.Name)
		for _, d := range v.Divergences {
			fmt.Fprintf(&b, "        %s\n", d)
		}
	}
	return b.String()
}

// Run executes the module's invocations under the reference and under each
// selected configuration, comparing results, traps, and final digests. It
// returns an error only when the reference itself cannot run the module —
// in that case there is nothing to arbitrate against.
func Run(m *wasm.Module, opts Options) (*Report, error) {
	ref, err := runReference(m, opts)
	if err != nil {
		return nil, err
	}
	configs := opts.Configs
	if configs == nil {
		configs = AllConfigs()
	}
	rep := &Report{}
	for _, name := range configs {
		got, err := runConfig(name, m, opts)
		if err != nil {
			return nil, err
		}
		rep.Configs = append(rep.Configs, ConfigVerdict{
			Name:        name,
			Divergences: compare(name, ref, got),
		})
	}
	return rep, nil
}

// runReference executes the module under the oracle.
func runReference(m *wasm.Module, opts Options) (runResult, error) {
	var printed []float64
	var imports refinterp.Imports
	if opts.PrintF64 {
		imports = refinterp.Imports{
			"env": {
				"print_f64": &refinterp.HostFunc{
					Type: builder.Sig(builder.V(wasm.F64), nil),
					Fn: func(args []refinterp.Value) ([]refinterp.Value, error) {
						printed = append(printed, math.Float64frombits(args[0]))
						return nil, nil
					},
				},
			},
		}
	}
	inst, err := refinterp.Instantiate(m, imports)
	if err != nil {
		return runResult{}, fmt.Errorf("diff: reference instantiate: %w", err)
	}
	var res runResult
	for _, inv := range opts.Invocations {
		results, err := inst.Invoke(inv.Entry, inv.Args...)
		res.outcomes = append(res.outcomes, classify(results, err))
	}
	globals := make([]uint64, len(inst.Globals))
	copy(globals, inst.Globals)
	res.digest = digest(inst.Mem, globals, printed)
	return res, nil
}

// runConfig executes the module under one production configuration. A
// non-nil error means the harness itself failed (bad config name), not that
// the configuration diverged: instantiation errors are part of the result.
func runConfig(name string, m *wasm.Module, opts Options) (runResult, error) {
	var printed []float64
	var imports interp.Imports
	if opts.PrintF64 {
		imports = interp.Imports{
			"env": {
				"print_f64": &interp.HostFunc{
					Type: builder.Sig(builder.V(wasm.F64), nil),
					Fn: func(_ *interp.Instance, args []interp.Value) ([]interp.Value, error) {
						printed = append(printed, interp.AsF64(args[0]))
						return nil, nil
					},
				},
			},
		}
	}

	var inst *interp.Instance
	var cleanup func()
	switch name {
	case "plain":
		i, err := interp.Instantiate(m, imports)
		if err != nil {
			return runResult{instErr: err.Error()}, nil
		}
		inst = i
	case "hooked", "static", "fuel":
		var engOpts []wasabi.EngineOption
		switch name {
		case "static":
			engOpts = append(engOpts, wasabi.WithStaticAnalysis())
		case "fuel":
			engOpts = append(engOpts, wasabi.WithFuel(ampleFuel))
		}
		sess, i, err := newHookedInstance(m, imports, &analyses.Empty{}, engOpts...)
		if err != nil {
			return runResult{instErr: err.Error()}, nil
		}
		inst = i
		cleanup = func() { sess.Close() }
	case "relinked":
		eng, err := wasabi.NewEngine()
		if err != nil {
			return runResult{}, err
		}
		ca, err := eng.Instrument(m, wasabi.AllCaps)
		if err != nil {
			return runResult{instErr: err.Error()}, nil
		}
		// The first instance compiles the code and runs every invocation
		// on it; the measured second instance links that code.
		first, err := ca.NewSession(&analyses.Empty{})
		if err != nil {
			return runResult{instErr: err.Error()}, nil
		}
		if i, err := first.Instantiate("", imports); err == nil {
			for _, inv := range opts.Invocations {
				i.Invoke(inv.Entry, inv.Args...)
			}
		}
		first.Close()
		printed = nil
		sess, err := ca.NewSession(&analyses.Empty{})
		if err != nil {
			return runResult{instErr: err.Error()}, nil
		}
		i, err := sess.Instantiate("", imports)
		if err != nil {
			sess.Close()
			return runResult{instErr: err.Error()}, nil
		}
		inst = i
		cleanup = func() { sess.Close() }
	case "stream":
		// Stream-only analyses require the stream to be opened before the
		// first Instantiate, so this config cannot share newHookedInstance.
		eng, err := wasabi.NewEngine()
		if err != nil {
			return runResult{}, err
		}
		ca, err := eng.Instrument(m, wasabi.AllCaps)
		if err != nil {
			return runResult{instErr: err.Error()}, nil
		}
		sess, err := ca.NewSession(&nopStream{})
		if err != nil {
			return runResult{instErr: err.Error()}, nil
		}
		stream, err := sess.Stream()
		if err != nil {
			sess.Close()
			return runResult{instErr: err.Error()}, nil
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			stream.Serve(&nopStream{})
		}()
		i, err := sess.Instantiate("", imports)
		if err != nil {
			stream.Close()
			<-done
			sess.Close()
			return runResult{instErr: err.Error()}, nil
		}
		inst = i
		cleanup = func() {
			stream.Close()
			<-done
			sess.Close()
		}
	default:
		return runResult{}, fmt.Errorf("diff: unknown config %q", name)
	}
	if cleanup != nil {
		defer cleanup()
	}

	var res runResult
	for _, inv := range opts.Invocations {
		results, err := inst.Invoke(inv.Entry, inv.Args...)
		res.outcomes = append(res.outcomes, classify(results, err))
	}
	var mem []byte
	if inst.Memory != nil {
		mem = inst.Memory.Data
	}
	globals := make([]uint64, len(inst.Globals))
	for i, g := range inst.Globals {
		globals[i] = g.Val
	}
	res.digest = digest(mem, globals, printed)
	return res, nil
}

// newHookedInstance instruments m for all hooks on a fresh engine, opens a
// session with the given analysis, and instantiates anonymously.
func newHookedInstance(m *wasm.Module, imports interp.Imports, a any, engOpts ...wasabi.EngineOption) (*wasabi.Session, *interp.Instance, error) {
	eng, err := wasabi.NewEngine(engOpts...)
	if err != nil {
		return nil, nil, err
	}
	ca, err := eng.Instrument(m, wasabi.AllCaps)
	if err != nil {
		return nil, nil, err
	}
	sess, err := ca.NewSession(a)
	if err != nil {
		return nil, nil, err
	}
	inst, err := sess.Instantiate("", imports)
	if err != nil {
		sess.Close()
		return nil, nil, err
	}
	return sess, inst, nil
}

// classify folds an invocation's (results, error) into an outcome. Trap
// codes are compared as the spec-wording strings both interpreters share.
func classify(results []uint64, err error) outcome {
	if err == nil {
		return outcome{results: results}
	}
	var rt *refinterp.Trap
	if errors.As(err, &rt) {
		return outcome{trap: rt.Code}
	}
	var it *interp.Trap
	if errors.As(err, &it) {
		return outcome{trap: it.Code}
	}
	return outcome{err: err.Error()}
}

// digest hashes the final machine state: linear memory, then every global
// as 8 little-endian bytes, then every host-printed f64 as its IEEE bits.
func digest(mem []byte, globals []uint64, printed []float64) [sha256.Size]byte {
	h := sha256.New()
	h.Write(mem)
	var b [8]byte
	for _, g := range globals {
		putLE64(b[:], g)
		h.Write(b[:])
	}
	for _, p := range printed {
		putLE64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// compare diffs one configuration's run against the reference's.
func compare(config string, ref, got runResult) []Divergence {
	var out []Divergence
	if ref.instErr != got.instErr {
		return []Divergence{{
			Config: config, Invocation: -1, Field: "instantiate",
			Want: quoteOrNone(ref.instErr), Got: quoteOrNone(got.instErr),
		}}
	}
	for i := range ref.outcomes {
		r, g := ref.outcomes[i], got.outcomes[i]
		switch {
		case r.trap != g.trap:
			out = append(out, Divergence{
				Config: config, Invocation: i, Field: "trap",
				Want: quoteOrNone(r.trap), Got: quoteOrNone(g.trap),
			})
		case r.err != g.err:
			out = append(out, Divergence{
				Config: config, Invocation: i, Field: "error",
				Want: quoteOrNone(r.err), Got: quoteOrNone(g.err),
			})
		case !equalU64(r.results, g.results):
			out = append(out, Divergence{
				Config: config, Invocation: i, Field: "results",
				Want: fmt.Sprintf("%v", r.results), Got: fmt.Sprintf("%v", g.results),
			})
		}
	}
	if ref.digest != got.digest {
		out = append(out, Divergence{
			Config: config, Invocation: -1, Field: "memory/globals digest",
			Want: hex.EncodeToString(ref.digest[:8]), Got: hex.EncodeToString(got.digest[:8]),
		})
	}
	return out
}

func quoteOrNone(s string) string {
	if s == "" {
		return "<none>"
	}
	return fmt.Sprintf("%q", s)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
