package interp

import "math"

// Resource limits. Config.MaxMemoryPages overrides the memory cap; the
// other three are fixed.
const (
	// MaxCallDepthDefault bounds wasm call recursion: a call past it traps
	// with TrapStackExhausted.
	MaxCallDepthDefault = 8192
	// DefaultMaxMemoryPages bounds linear-memory growth to 512 MiB when
	// Config.MaxMemoryPages is zero.
	DefaultMaxMemoryPages = 8192
	// DefaultMaxTableElems bounds a table's declared minimum; a larger one
	// fails instantiation with ErrLimit.
	DefaultMaxTableElems = 1 << 20
	// DefaultMaxFuncStack bounds the per-function operand-stack high-water
	// mark the compile pass accepts. The threaded form pre-allocates one flat
	// buffer of this many values per active call, so the bound is what keeps
	// a hostile function body from demanding an absurd allocation. Compile
	// rejects a body beyond it with ErrLimit.
	DefaultMaxFuncStack = 1 << 16
)

// Config is the containment configuration of one instance: whether the
// compile pass weaves fuel/interruption guards into the threaded code, its
// fuel budget, and its memory cap. The zero value is the permissive default
// — unguarded code (zero metering overhead, not interruptible) under the
// package's limits.
type Config struct {
	// Guarded compiles containment guards into the threaded form: one fused
	// fuel-decrement + interrupt-check instruction per basic block. Required
	// for fuel metering and asynchronous interruption; costs nothing when
	// false because no guard instructions are emitted at all.
	Guarded bool

	// Fuel is the initial fuel budget of a guarded instance. Each guard
	// charges the number of source instructions its basic block covers, so
	// consumption is deterministic: the same invocation consumes the same
	// fuel. Zero means unlimited (guards still check the interrupt flag).
	// Instance.SetFuel adjusts the budget between invocations.
	Fuel uint64

	// MaxMemoryPages caps linear-memory size in 64 KiB pages, growth and
	// initial allocation alike. Zero means DefaultMaxMemoryPages.
	MaxMemoryPages uint32
}

func (c *Config) maxMemoryPages() uint32 {
	if c.MaxMemoryPages == 0 {
		return DefaultMaxMemoryPages
	}
	return c.MaxMemoryPages
}

// initialFuel maps the configured budget to the runtime representation:
// unlimited is MaxInt64, never reachable by per-block decrements.
func (c *Config) initialFuel() int64 {
	if c.Fuel == 0 || c.Fuel > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(c.Fuel)
}
