// Package wasi implements a deterministic wasi_snapshot_preview1 host
// provider: enough of the preview1 syscall surface to run and analyze real
// toolchain binaries (wasm32-wasi output of clang, Rust, TinyGo for
// hello-world-class programs) without giving the guest any ambient
// authority. Everything an analyzed module can observe through it is
// reproducible by construction — the clock is a mock that advances by a
// fixed step per read, random_get draws from a seeded generator, and the
// file descriptors are an in-memory table with captured stdio — so a
// recorded analysis run can be replayed bit-for-bit.
//
// The provider is a set of interp.HostFuncs (see System.Imports); each
// syscall validates guest pointers against the instance's linear memory and
// reports failures as WASI errnos, never as traps, matching how a native
// preview1 host behaves. The one exception is proc_exit, which by design
// unwinds the whole call: it surfaces as a typed *ExitError through the
// host-error path so embedders can distinguish "the program called exit(3)"
// from a crash.
package wasi

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"wasabi/internal/failpoint"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// ModuleName is the import module name every preview1 binary links against.
const ModuleName = "wasi_snapshot_preview1"

// WASI preview1 errno values (the subset this provider reports).
const (
	errnoSuccess uint32 = 0
	errnoBadf    uint32 = 8
	errnoFault   uint32 = 21
	errnoInval   uint32 = 28
	errnoSpipe   uint32 = 70
)

// WASI preview1 filetypes (fd_fdstat_get).
const (
	filetypeCharDevice  byte = 2
	filetypeRegularFile byte = 4
)

// Config configures one System. The zero value is a valid minimal
// environment: no args, no env, empty stdin, clock starting at zero, and
// random bytes from seed 0.
type Config struct {
	// Args are the program arguments (args_get). By convention Args[0] is
	// the program name; an empty slice is presented as-is (argc 0).
	Args []string
	// Env are the environment strings, each "KEY=VALUE" (environ_get).
	Env []string
	// Stdin is the byte stream served to fd 0 reads.
	Stdin []byte
	// ClockBase is the first value (in nanoseconds) clock_time_get returns.
	ClockBase uint64
	// ClockStep is how many nanoseconds the mock clock advances on every
	// clock_time_get. 0 means DefaultClockStep, so repeated reads are
	// strictly monotonic (real programs spin on that).
	ClockStep uint64
	// RandomSeed seeds the deterministic random_get stream.
	RandomSeed int64
	// Files preopens in-memory regular files at descriptors 3, 4, … in
	// slice order: the WASI fd surface (read/seek/close/fdstat) over a
	// sandboxed FS with no path namespace — nothing the guest does can
	// reach the host filesystem.
	Files []File
}

// File is one preopened in-memory file.
type File struct {
	Name string // diagnostic only; there is no path namespace
	Data []byte
}

// DefaultClockStep is the mock clock's advance per clock_time_get when
// Config.ClockStep is 0: 1ms, coarse enough to make "did time pass" loops
// progress quickly.
const DefaultClockStep = uint64(1_000_000)

// ExitError is how proc_exit surfaces: the guest requested termination with
// the given code. It travels the host-error path (so it unwinds the whole
// wasm stack like a trap) but is recoverable with errors.As — a zero Code
// is a successful exit, not a failure.
type ExitError struct {
	Code uint32
}

func (e *ExitError) Error() string {
	return fmt.Sprintf("wasi: module exited with code %d", e.Code)
}

// fdEntry is one open descriptor. Stdio entries stream (no seeking);
// regular-file entries support the full read/seek surface.
type fdEntry struct {
	filetype byte
	data     []byte // backing bytes for readable fds
	pos      int64  // read cursor (regular files and stdin)
	writable bool   // fd 1 / fd 2
	seekable bool   // regular files only
	out      *[]byte
	closed   bool
}

// System is the per-run WASI state: argument/environment blocks, the fd
// table, the mock clock, and the seeded random stream. One System belongs
// to one instantiation's run; it is not safe for concurrent use (matching
// the single-goroutine contract of the instance driving it).
type System struct {
	cfg    Config
	clock  uint64
	step   uint64
	rng    *rand.Rand
	fds    map[uint32]*fdEntry
	stdout []byte
	stderr []byte
	exit   *ExitError // recorded by proc_exit
}

// New builds a System from cfg.
func New(cfg Config) *System {
	step := cfg.ClockStep
	if step == 0 {
		step = DefaultClockStep
	}
	s := &System{
		cfg:   cfg,
		clock: cfg.ClockBase,
		step:  step,
		rng:   rand.New(rand.NewSource(cfg.RandomSeed)),
		fds:   make(map[uint32]*fdEntry, 3+len(cfg.Files)),
	}
	s.fds[0] = &fdEntry{filetype: filetypeCharDevice, data: cfg.Stdin}
	s.fds[1] = &fdEntry{filetype: filetypeCharDevice, writable: true, out: &s.stdout}
	s.fds[2] = &fdEntry{filetype: filetypeCharDevice, writable: true, out: &s.stderr}
	for i, f := range cfg.Files {
		s.fds[uint32(3+i)] = &fdEntry{filetype: filetypeRegularFile, data: f.Data, seekable: true}
	}
	return s
}

// Stdout returns everything the guest wrote to fd 1 so far.
func (s *System) Stdout() []byte { return s.stdout }

// Stderr returns everything the guest wrote to fd 2 so far.
func (s *System) Stderr() []byte { return s.stderr }

// Exit reports the proc_exit call, if the guest made one.
func (s *System) Exit() (code uint32, exited bool) {
	if s.exit == nil {
		return 0, false
	}
	return s.exit.Code, true
}

// Signature helpers: preview1 is uniformly (i32… [, i64]) → errno:i32,
// except proc_exit which never returns.
func sig(params ...wasm.ValType) wasm.FuncType {
	return wasm.FuncType{Params: params, Results: []wasm.ValType{wasm.I32}}
}

// syscall wraps a preview1 implementation into an interp.HostFunc body:
// the shared fault-injection seam runs first (an injected failure is a
// typed host error, indistinguishable from the provider itself failing),
// then the errno result is widened onto the stack.
func syscall(impl func(inst *interp.Instance, args []interp.Value) uint32) func(*interp.Instance, []interp.Value) ([]interp.Value, error) {
	return func(inst *interp.Instance, args []interp.Value) ([]interp.Value, error) {
		if err := failpoint.Inject(failpoint.WASIHostCall); err != nil {
			return nil, err
		}
		return []interp.Value{uint64(impl(inst, args))}, nil
	}
}

// mem returns the instance's linear memory bytes, nil when the module has
// none; preview1 functions that take a guest pointer then fail with EFAULT,
// even for zero bytes (writeU32, writeU64 and span all refuse a nil m).
func mem(inst *interp.Instance) []byte {
	if inst.Memory == nil {
		return nil
	}
	return inst.Memory.Data
}

// writeU32/writeU64 store little-endian values at a guest pointer,
// reporting false when the write would fall outside linear memory.
func writeU32(m []byte, ptr uint32, v uint32) bool {
	if uint64(ptr)+4 > uint64(len(m)) {
		return false
	}
	binary.LittleEndian.PutUint32(m[ptr:], v)
	return true
}

func writeU64(m []byte, ptr uint32, v uint64) bool {
	if uint64(ptr)+8 > uint64(len(m)) {
		return false
	}
	binary.LittleEndian.PutUint64(m[ptr:], v)
	return true
}

func span(m []byte, ptr, size uint32) ([]byte, bool) {
	if m == nil || uint64(ptr)+uint64(size) > uint64(len(m)) {
		return nil, false
	}
	return m[ptr : uint64(ptr)+uint64(size)], true
}

// Imports returns the provider's import map, suitable for merging into
// Session.Instantiate program imports (module ModuleName). Every call into
// the returned functions mutates this System.
func (s *System) Imports() map[string]any {
	i32 := wasm.I32
	return map[string]any{
		"args_sizes_get":    &interp.HostFunc{Type: sig(i32, i32), Fn: syscall(s.argsSizesGet)},
		"args_get":          &interp.HostFunc{Type: sig(i32, i32), Fn: syscall(s.argsGet)},
		"environ_sizes_get": &interp.HostFunc{Type: sig(i32, i32), Fn: syscall(s.environSizesGet)},
		"environ_get":       &interp.HostFunc{Type: sig(i32, i32), Fn: syscall(s.environGet)},
		"clock_time_get":    &interp.HostFunc{Type: sig(i32, wasm.I64, i32), Fn: syscall(s.clockTimeGet)},
		"random_get":        &interp.HostFunc{Type: sig(i32, i32), Fn: syscall(s.randomGet)},
		"fd_write":          &interp.HostFunc{Type: sig(i32, i32, i32, i32), Fn: syscall(s.fdWrite)},
		"fd_read":           &interp.HostFunc{Type: sig(i32, i32, i32, i32), Fn: syscall(s.fdRead)},
		"fd_seek":           &interp.HostFunc{Type: sig(i32, wasm.I64, i32, i32), Fn: syscall(s.fdSeek)},
		"fd_close":          &interp.HostFunc{Type: sig(i32), Fn: syscall(s.fdClose)},
		"fd_fdstat_get":     &interp.HostFunc{Type: sig(i32, i32), Fn: syscall(s.fdFdstatGet)},
		"proc_exit": &interp.HostFunc{
			Type: wasm.FuncType{Params: []wasm.ValType{i32}},
			Fn: func(inst *interp.Instance, args []interp.Value) ([]interp.Value, error) {
				if err := failpoint.Inject(failpoint.WASIHostCall); err != nil {
					return nil, err
				}
				s.exit = &ExitError{Code: uint32(args[0])}
				return nil, s.exit
			},
		},
	}
}

// argsSizesGet writes argc and the total size of the argument block.
func (s *System) argsSizesGet(inst *interp.Instance, args []interp.Value) uint32 {
	return s.sizesGet(inst, uint32(args[0]), uint32(args[1]), s.cfg.Args)
}

func (s *System) argsGet(inst *interp.Instance, args []interp.Value) uint32 {
	return s.listGet(inst, uint32(args[0]), uint32(args[1]), s.cfg.Args)
}

func (s *System) environSizesGet(inst *interp.Instance, args []interp.Value) uint32 {
	return s.sizesGet(inst, uint32(args[0]), uint32(args[1]), s.cfg.Env)
}

func (s *System) environGet(inst *interp.Instance, args []interp.Value) uint32 {
	return s.listGet(inst, uint32(args[0]), uint32(args[1]), s.cfg.Env)
}

// sizesGet is the shared shape of args_sizes_get / environ_sizes_get:
// *countPtr = len(list), *bufSizePtr = Σ len(s)+1 (NUL-terminated).
func (s *System) sizesGet(inst *interp.Instance, countPtr, bufSizePtr uint32, list []string) uint32 {
	m := mem(inst)
	total := 0
	for _, a := range list {
		total += len(a) + 1
	}
	if !writeU32(m, countPtr, uint32(len(list))) || !writeU32(m, bufSizePtr, uint32(total)) {
		return errnoFault
	}
	return errnoSuccess
}

// listGet is the shared shape of args_get / environ_get: the pointer array
// at ptrsPtr receives one guest pointer per entry, the strings themselves
// are packed NUL-terminated at bufPtr.
func (s *System) listGet(inst *interp.Instance, ptrsPtr, bufPtr uint32, list []string) uint32 {
	m := mem(inst)
	if m == nil {
		return errnoFault
	}
	off := bufPtr
	for i, a := range list {
		if !writeU32(m, ptrsPtr+uint32(4*i), off) {
			return errnoFault
		}
		dst, ok := span(m, off, uint32(len(a)+1))
		if !ok {
			return errnoFault
		}
		copy(dst, a)
		dst[len(a)] = 0
		off += uint32(len(a) + 1)
	}
	return errnoSuccess
}

// clockTimeGet serves every clock id from the one mock clock, advancing it
// by the configured step per read so time observably progresses.
func (s *System) clockTimeGet(inst *interp.Instance, args []interp.Value) uint32 {
	timePtr := uint32(args[2])
	now := s.clock
	s.clock += s.step
	if !writeU64(mem(inst), timePtr, now) {
		return errnoFault
	}
	return errnoSuccess
}

// randomGet fills the guest buffer from the seeded stream.
func (s *System) randomGet(inst *interp.Instance, args []interp.Value) uint32 {
	buf, ok := span(mem(inst), uint32(args[0]), uint32(args[1]))
	if !ok {
		return errnoFault
	}
	s.rng.Read(buf) // never fails
	return errnoSuccess
}

// iovec walks the guest's (ptr, len) iovec array, calling f on each
// in-bounds buffer. Returns errnoFault on any out-of-bounds element.
func iovec(m []byte, iovsPtr, iovsLen uint32, f func(b []byte)) uint32 {
	for i := uint32(0); i < iovsLen; i++ {
		rec, ok := span(m, iovsPtr+8*i, 8)
		if !ok {
			return errnoFault
		}
		ptr := binary.LittleEndian.Uint32(rec)
		n := binary.LittleEndian.Uint32(rec[4:])
		b, ok := span(m, ptr, n)
		if !ok {
			return errnoFault
		}
		f(b)
	}
	return errnoSuccess
}

func (s *System) fdWrite(inst *interp.Instance, args []interp.Value) uint32 {
	fd, iovsPtr, iovsLen, nwrittenPtr := uint32(args[0]), uint32(args[1]), uint32(args[2]), uint32(args[3])
	e := s.fds[fd]
	if e == nil || e.closed || !e.writable {
		return errnoBadf
	}
	m := mem(inst)
	var written uint32
	if rc := iovec(m, iovsPtr, iovsLen, func(b []byte) {
		*e.out = append(*e.out, b...)
		written += uint32(len(b))
	}); rc != errnoSuccess {
		return rc
	}
	if !writeU32(m, nwrittenPtr, written) {
		return errnoFault
	}
	return errnoSuccess
}

func (s *System) fdRead(inst *interp.Instance, args []interp.Value) uint32 {
	fd, iovsPtr, iovsLen, nreadPtr := uint32(args[0]), uint32(args[1]), uint32(args[2]), uint32(args[3])
	e := s.fds[fd]
	if e == nil || e.closed || e.writable {
		return errnoBadf
	}
	m := mem(inst)
	var read uint32
	if rc := iovec(m, iovsPtr, iovsLen, func(b []byte) {
		n := copy(b, e.data[min64(e.pos, int64(len(e.data))):])
		e.pos += int64(n)
		read += uint32(n)
	}); rc != errnoSuccess {
		return rc
	}
	if !writeU32(m, nreadPtr, read) {
		return errnoFault
	}
	return errnoSuccess
}

func (s *System) fdSeek(inst *interp.Instance, args []interp.Value) uint32 {
	fd, offset, whence, newPtr := uint32(args[0]), int64(args[1]), uint32(args[2]), uint32(args[3])
	e := s.fds[fd]
	if e == nil || e.closed {
		return errnoBadf
	}
	if !e.seekable {
		return errnoSpipe
	}
	// The result pointer is checked before the seek, so a failed call
	// leaves the position where it was.
	out, ok := span(mem(inst), newPtr, 8)
	if !ok {
		return errnoFault
	}
	var base int64
	switch whence {
	case 0: // SET
		base = 0
	case 1: // CUR
		base = e.pos
	case 2: // END
		base = int64(len(e.data))
	default:
		return errnoInval
	}
	pos := base + offset
	if pos < 0 {
		return errnoInval
	}
	e.pos = pos
	binary.LittleEndian.PutUint64(out, uint64(pos))
	return errnoSuccess
}

func (s *System) fdClose(_ *interp.Instance, args []interp.Value) uint32 {
	e := s.fds[uint32(args[0])]
	if e == nil || e.closed {
		return errnoBadf
	}
	e.closed = true
	return errnoSuccess
}

// fdFdstatGet fills the 24-byte fdstat record: filetype, flags, and an
// everything-allowed rights mask (the sandbox is the fd table itself, not
// the rights bits).
func (s *System) fdFdstatGet(inst *interp.Instance, args []interp.Value) uint32 {
	e := s.fds[uint32(args[0])]
	if e == nil || e.closed {
		return errnoBadf
	}
	stat, ok := span(mem(inst), uint32(args[1]), 24)
	if !ok {
		return errnoFault
	}
	for i := range stat {
		stat[i] = 0
	}
	stat[0] = e.filetype
	binary.LittleEndian.PutUint64(stat[8:], ^uint64(0))  // fs_rights_base
	binary.LittleEndian.PutUint64(stat[16:], ^uint64(0)) // fs_rights_inheriting
	return errnoSuccess
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
