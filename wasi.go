package wasabi

// The public WASI surface: WithWASI turns an engine's sessions into
// preview1 hosts, so real toolchain binaries (wasm32-wasi output of clang,
// Rust, TinyGo) instantiate and run under analysis without hand-written
// import shims. See internal/wasi for the provider itself and README "WASI
// & real binaries" for the workflow.

import (
	"fmt"

	"wasabi/internal/wasi"
)

// WASIConfig configures the deterministic preview1 environment sessions
// present to guests (see wasi.Config for the fields). The zero value is a
// valid minimal environment. Determinism is the point — two runs with the
// same config observe identical clock, random, and fd behavior, which is
// what makes analysis results reproducible and the differential oracle
// applicable to WASI binaries.
type WASIConfig = wasi.Config

// WASIFile is one preopened in-memory file (WASIConfig.Files).
type WASIFile = wasi.File

// ExitError reports a guest's proc_exit call: the module requested
// termination with Code. It comes back from Invoke like a trap (the whole
// wasm stack unwinds) but is recovered with errors.As — a zero Code is a
// successful exit, not a failure, and callers running WASI commands should
// treat it as the program's exit status.
type ExitError = wasi.ExitError

// WithWASI makes every session of the engine link a wasi_snapshot_preview1
// provider into instances it creates (program imports for that module name,
// when present, win — an embedder can still override individual views of
// the world by providing the whole module). Each session gets its own WASI
// state — fd table, captured stdio, mock clock, random stream — shared by
// the instances of that session and inspected through Session.WASI.
func WithWASI(cfg WASIConfig) EngineOption {
	return func(e *Engine) error {
		for i, f := range cfg.Files {
			if f.Data == nil {
				return badOption("WithWASI", fmt.Sprintf("Files[%d] %q", i, f.Name), "preopened file data must be non-nil")
			}
		}
		c := cfg // copy; the engine owns its configuration
		e.wasiCfg = &c
		return nil
	}
}

// WASI is a session's view of its preview1 state: what the guest wrote and
// whether it exited.
type WASI struct {
	sys *wasi.System
}

// Stdout returns everything instances of the session wrote to fd 1 so far.
func (w *WASI) Stdout() []byte { return w.sys.Stdout() }

// Stderr returns everything instances of the session wrote to fd 2 so far.
func (w *WASI) Stderr() []byte { return w.sys.Stderr() }

// Exit reports the guest's proc_exit call, if it made one.
func (w *WASI) Exit() (code uint32, exited bool) { return w.sys.Exit() }

// WASI returns the session's WASI state, or nil when the engine was built
// without WithWASI. The state exists from the session's first Instantiate.
func (s *Session) WASI() *WASI {
	if s.wasiSys == nil {
		return nil
	}
	return &WASI{sys: s.wasiSys}
}

// wasiImports builds (once per session) the provider and its import map.
func (s *Session) wasiImports() map[string]any {
	cfg := s.compiled.engine.wasiCfg
	if cfg == nil {
		return nil
	}
	if s.wasiSys == nil {
		s.wasiSys = wasi.New(*cfg)
	}
	return s.wasiSys.Imports()
}
