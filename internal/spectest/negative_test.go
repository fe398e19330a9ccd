package spectest

import (
	"errors"
	"testing"

	"wasabi"
	"wasabi/internal/core"
	"wasabi/internal/static"
	"wasabi/internal/validate"
)

// TestNegativeCorpusValidate: every invalid module is rejected by the
// validator with a position-annotated typed error, never a panic.
func TestNegativeCorpusValidate(t *testing.T) {
	for _, c := range NegativeCorpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			err := validate.Module(c.Module())
			if err == nil {
				t.Fatal("invalid module validated")
			}
			var ve *validate.Error
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *validate.Error: %v", err, err)
			}
			if ve.FuncIdx < 0 {
				t.Errorf("error lacks a function position: %v", err)
			}
		})
	}
}

// TestNegativeCorpusStatic: the module profile (what `wasabi -inspect`
// prints, on unvalidated input) survives every invalid module — structural
// malformations fail with an error, type-only malformations are out of its
// scope, and nothing panics. TestNegativeCorpusStaticEngine covers PlanFor.
func TestNegativeCorpusStatic(t *testing.T) {
	for _, c := range NegativeCorpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			_, err := static.Profile(c.Module())
			if c.CFGMustErr && err == nil {
				t.Error("structurally malformed module analyzed without error")
			}
		})
	}
}

// TestNegativeCorpusEngine: the public API path rejects every invalid
// module before instrumentation, wrapping ErrInvalidModule.
func TestNegativeCorpusEngine(t *testing.T) {
	eng, err := wasabi.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range NegativeCorpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			_, err := eng.Instrument(c.Module(), wasabi.AllCaps)
			if err == nil {
				t.Fatal("engine instrumented an invalid module")
			}
			if !errors.Is(err, wasabi.ErrInvalidModule) {
				t.Errorf("error does not wrap ErrInvalidModule: %v", err)
			}
			var ve *wasabi.ValidationError
			if !errors.As(err, &ve) {
				t.Errorf("error is not a *wasabi.ValidationError: %v", err)
			}
		})
	}
}

// TestNegativeCorpusStaticEngine: the instrumenter, run without validation
// under the static plan, never panics on an invalid module, and the plan,
// which checks structure only, rejects every structurally malformed one.
// Type-only malformations reach the instrumenter, whose output is then
// undefined.
func TestNegativeCorpusStaticEngine(t *testing.T) {
	hooks := wasabi.AllCaps.HookSet()
	for _, c := range NegativeCorpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m := c.Module()
			plan, err := static.PlanFor(m, hooks)
			if err == nil {
				_, _, err = core.Instrument(m, core.Options{Hooks: hooks, SkipValidation: true, Plan: plan})
			}
			if c.CFGMustErr && err == nil {
				t.Error("structurally malformed module instrumented without error")
			}
		})
	}
}
