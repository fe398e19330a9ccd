package failpoint

import (
	"errors"
	"testing"
)

// TestDisabledFastPath pins the structural guarantee the package comment
// makes: with nothing armed, Inject and Enabled are pure reads — no
// allocation, nil/false for every point, including out-of-range values.
func TestDisabledFastPath(t *testing.T) {
	DisarmAll()
	for _, p := range Points() {
		if err := Inject(p); err != nil {
			t.Fatalf("Inject(%s) with nothing armed = %v, want nil", p, err)
		}
		if Enabled(p) {
			t.Fatalf("Enabled(%s) with nothing armed = true", p)
		}
	}
	for _, p := range []Point{-1, Point(numPoints), Point(numPoints + 7)} {
		if err := Inject(p); err != nil {
			t.Fatalf("Inject(%d) out of range = %v, want nil", int(p), err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		for _, p := range Points() {
			if Inject(p) != nil {
				t.Fatal("armed mid-benchmark")
			}
		}
	}); n != 0 {
		t.Fatalf("disabled Inject allocates: %v allocs/run, want 0", n)
	}
}

// TestArmed covers the armed path: the typed error, its sentinel unwrap,
// per-point isolation, and Enabled for panic-contract sites.
func TestArmed(t *testing.T) {
	t.Cleanup(DisarmAll)
	for _, p := range Points() {
		DisarmAll()
		Arm(p)
		err := Inject(p)
		if err == nil {
			t.Fatalf("Inject(%s) armed = nil, want error", p)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("Inject(%s) = %v, not errors.Is ErrInjected", p, err)
		}
		var inj *InjectedError
		if !errors.As(err, &inj) || inj.Point != p {
			t.Fatalf("Inject(%s) = %v, want *InjectedError for the same point", p, err)
		}
		if !Enabled(p) {
			t.Fatalf("Enabled(%s) armed = false", p)
		}
		// Arming one point must not trip the others.
		for _, q := range Points() {
			if q == p {
				continue
			}
			if err := Inject(q); err != nil {
				t.Fatalf("Inject(%s) with only %s armed = %v", q, p, err)
			}
		}
	}
}

// TestArmDisarmIdempotent checks the counter cannot be skewed by repeated
// Arm/Disarm: the fast path depends on armedTotal reaching exactly zero.
func TestArmDisarmIdempotent(t *testing.T) {
	t.Cleanup(DisarmAll)
	DisarmAll()
	Arm(HostCall)
	Arm(HostCall)
	Arm(EmitterEmit)
	Disarm(HostCall)
	if Enabled(HostCall) {
		t.Fatal("HostCall still enabled after Disarm")
	}
	if !Enabled(EmitterEmit) {
		t.Fatal("EmitterEmit disarmed by an unrelated Disarm")
	}
	Disarm(EmitterEmit)
	Disarm(EmitterEmit)
	if got := armedTotal.Load(); got != 0 {
		t.Fatalf("armedTotal after balanced arm/disarm = %d, want 0", got)
	}
	if err := Inject(HostCall); err != nil {
		t.Fatalf("Inject after full disarm = %v", err)
	}
}

// TestNames pins the stable names: they are the scheduler suite's subtest
// names.
func TestNames(t *testing.T) {
	want := map[Point]string{
		EmitterEmit:     "emitter-emit",
		EmitterFlush:    "emitter-flush",
		RegistryReserve: "registry-reserve",
		RegistryCommit:  "registry-commit",
		ValuePoolGet:    "value-pool-get",
		HostCall:        "host-call",
		InstrumentCache: "instrument-cache",
		WASIHostCall:    "wasi-host-call",
	}
	if len(want) != numPoints {
		t.Fatalf("test covers %d points, package registers %d", len(want), numPoints)
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), name)
		}
	}
	if s := Point(-3).String(); s != "failpoint(-3)" {
		t.Errorf("out-of-range String() = %q", s)
	}
}

// BenchmarkInjectDisabled measures the cost every production seam pays when
// the layer is off — the number the "zero overhead disabled" claim rests on.
func BenchmarkInjectDisabled(b *testing.B) {
	DisarmAll()
	for i := 0; i < b.N; i++ {
		if Inject(EmitterEmit) != nil {
			b.Fatal("armed")
		}
	}
}
