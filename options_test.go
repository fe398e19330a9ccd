package wasabi_test

// Option-validation coverage: every option constructor that takes a value is
// probed with invalid and boundary inputs. Misconfigurations must fail at
// construction (NewEngine / Session.Stream) with a *BadOptionError instead
// of being silently accepted and misbehaving at runtime.

import (
	"errors"
	"testing"

	"wasabi"
)

func TestEngineOptionValidation(t *testing.T) {
	cases := []struct {
		name   string
		opt    wasabi.EngineOption
		option string // expected BadOptionError.Option; "" means valid
	}{
		{"cache limit negative", wasabi.WithCompiledCacheLimit(-5), "WithCompiledCacheLimit"},
		{"cache limit zero ok", wasabi.WithCompiledCacheLimit(0), ""},
		{"fuel negative", wasabi.WithFuel(-1), "WithFuel"},
		{"fuel zero ok", wasabi.WithFuel(0), ""},
		{"fuel positive ok", wasabi.WithFuel(1 << 40), ""},
		{"memory limit zero", wasabi.WithMemoryLimitPages(0), "WithMemoryLimitPages"},
		{"memory limit ok", wasabi.WithMemoryLimitPages(16), ""},
		{"static analysis ok", wasabi.WithStaticAnalysis(), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := wasabi.NewEngine(tc.opt)
			if tc.option == "" {
				if err != nil {
					t.Fatalf("valid option rejected: %v", err)
				}
				if eng == nil {
					t.Fatal("nil engine without error")
				}
				return
			}
			if err == nil {
				t.Fatal("invalid option accepted")
			}
			if eng != nil {
				t.Error("non-nil engine with error")
			}
			if !errors.Is(err, wasabi.ErrBadOption) {
				t.Errorf("err = %v, not errors.Is ErrBadOption", err)
			}
			var bad *wasabi.BadOptionError
			if !errors.As(err, &bad) {
				t.Fatalf("err = %v, not a *BadOptionError", err)
			}
			if bad.Option != tc.option {
				t.Errorf("BadOptionError.Option = %q, want %q", bad.Option, tc.option)
			}
		})
	}

	// The first invalid option wins, even with valid ones around it.
	_, err := wasabi.NewEngine(wasabi.WithCompiledCacheLimit(2), wasabi.WithFuel(-7), wasabi.WithMemoryLimitPages(0))
	var bad *wasabi.BadOptionError
	if !errors.As(err, &bad) || bad.Option != "WithFuel" {
		t.Errorf("first bad option not reported: %v", err)
	}
}

// TestStreamOptionValidation checks the per-stream overrides through
// Session.Stream, the construction point of a stream.
func TestStreamOptionValidation(t *testing.T) {
	compiled, err := mustEngine(t).Instrument(buildTestModule(), wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		opt    wasabi.StreamOption
		option string
	}{
		{"batch size zero", wasabi.StreamBatchSize(0), "StreamBatchSize"},
		{"batch size negative", wasabi.StreamBatchSize(-1), "StreamBatchSize"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := compiled.NewSession(faultSink{})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			_, err = sess.Stream(tc.opt)
			if err == nil {
				t.Fatal("invalid stream option accepted")
			}
			if !errors.Is(err, wasabi.ErrBadOption) {
				t.Errorf("err = %v, not errors.Is ErrBadOption", err)
			}
			var bad *wasabi.BadOptionError
			if !errors.As(err, &bad) || bad.Option != tc.option {
				t.Errorf("err = %v, want *BadOptionError for %s", err, tc.option)
			}
			// The session itself stays usable: a valid Stream call succeeds.
			if _, err := sess.Stream(wasabi.StreamBatchSize(8)); err != nil {
				t.Errorf("session unusable after rejected option: %v", err)
			}
		})
	}
}
