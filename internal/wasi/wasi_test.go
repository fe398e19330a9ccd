package wasi

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/failpoint"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// memInstance fabricates an instance with one page of linear memory, enough
// for the syscall implementations (they only touch inst.Memory).
func memInstance() *interp.Instance {
	return &interp.Instance{Memory: interp.NewMemory(wasm.Limits{Min: 1})}
}

func call(t *testing.T, hf *interp.HostFunc, inst *interp.Instance, args ...interp.Value) uint32 {
	t.Helper()
	res, err := hf.Fn(inst, args)
	if err != nil {
		t.Fatalf("syscall error: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("syscall returned %d values, want errno", len(res))
	}
	return uint32(res[0])
}

func u32(m []byte, ptr uint32) uint32 {
	return uint32(m[ptr]) | uint32(m[ptr+1])<<8 | uint32(m[ptr+2])<<16 | uint32(m[ptr+3])<<24
}

func u64(m []byte, ptr uint32) uint64 {
	return uint64(u32(m, ptr)) | uint64(u32(m, ptr+4))<<32
}

func TestArgsAndEnviron(t *testing.T) {
	s := New(Config{Args: []string{"prog", "-v"}, Env: []string{"A=1"}})
	imp := s.Imports()
	inst := memInstance()
	m := inst.Memory.Data

	if rc := call(t, imp["args_sizes_get"].(*interp.HostFunc), inst, 0, 4); rc != errnoSuccess {
		t.Fatalf("args_sizes_get errno %d", rc)
	}
	if argc := u32(m, 0); argc != 2 {
		t.Errorf("argc = %d, want 2", argc)
	}
	if sz := u32(m, 4); sz != uint32(len("prog")+1+len("-v")+1) {
		t.Errorf("argv buf size = %d, want 8", sz)
	}
	if rc := call(t, imp["args_get"].(*interp.HostFunc), inst, 16, 64); rc != errnoSuccess {
		t.Fatalf("args_get errno %d", rc)
	}
	if p0, p1 := u32(m, 16), u32(m, 20); p0 != 64 || p1 != 69 {
		t.Errorf("argv pointers = %d,%d, want 64,69", p0, p1)
	}
	if got := string(m[64:72]); got != "prog\x00-v\x00" {
		t.Errorf("argv block = %q", got)
	}

	if rc := call(t, imp["environ_sizes_get"].(*interp.HostFunc), inst, 0, 4); rc != errnoSuccess {
		t.Fatal("environ_sizes_get failed")
	}
	if count, sz := u32(m, 0), u32(m, 4); count != 1 || sz != 4 {
		t.Errorf("environ sizes = %d,%d, want 1,4", count, sz)
	}
	if rc := call(t, imp["environ_get"].(*interp.HostFunc), inst, 16, 128); rc != errnoSuccess {
		t.Fatal("environ_get failed")
	}
	if got := string(m[128:132]); got != "A=1\x00" {
		t.Errorf("environ block = %q", got)
	}

	// Out-of-bounds result pointers degrade to EFAULT, never a trap.
	if rc := call(t, imp["args_sizes_get"].(*interp.HostFunc), inst, 65536, 4); rc != errnoFault {
		t.Errorf("OOB args_sizes_get errno %d, want EFAULT", rc)
	}
}

func TestClockDeterminism(t *testing.T) {
	s := New(Config{ClockBase: 1000, ClockStep: 5})
	imp := s.Imports()["clock_time_get"].(*interp.HostFunc)
	inst := memInstance()
	for i, want := range []uint64{1000, 1005, 1010} {
		if rc := call(t, imp, inst, 0, 0, 32); rc != errnoSuccess {
			t.Fatalf("clock_time_get errno %d", rc)
		}
		if got := u64(inst.Memory.Data, 32); got != want {
			t.Errorf("read %d: clock = %d, want %d", i, got, want)
		}
	}
	if New(Config{}).step != DefaultClockStep {
		t.Errorf("zero ClockStep does not default")
	}
}

func TestRandomDeterminism(t *testing.T) {
	read := func(seed int64) []byte {
		s := New(Config{RandomSeed: seed})
		inst := memInstance()
		if rc := call(t, s.Imports()["random_get"].(*interp.HostFunc), inst, 0, 16); rc != errnoSuccess {
			t.Fatalf("random_get errno %d", rc)
		}
		return append([]byte(nil), inst.Memory.Data[:16]...)
	}
	a, b := read(7), read(7)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different bytes: %x vs %x", a, b)
	}
	want := make([]byte, 16)
	rand.New(rand.NewSource(7)).Read(want)
	if !bytes.Equal(a, want) {
		t.Errorf("random stream not the seeded math/rand stream: %x vs %x", a, want)
	}
	if c := read(8); bytes.Equal(a, c) {
		t.Errorf("different seeds produced identical bytes")
	}
}

func TestFdTable(t *testing.T) {
	s := New(Config{
		Stdin: []byte("abcdef"),
		Files: []File{{Name: "data.bin", Data: []byte("0123456789")}},
	})
	imp := s.Imports()
	inst := memInstance()
	m := inst.Memory.Data

	// fd_read from stdin through a two-element iovec: {ptr 100, len 4},
	// {ptr 200, len 4} — 6 bytes available, so the second iovec is short.
	put32 := func(ptr, v uint32) {
		m[ptr], m[ptr+1], m[ptr+2], m[ptr+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	put32(0, 100)
	put32(4, 4)
	put32(8, 200)
	put32(12, 4)
	if rc := call(t, imp["fd_read"].(*interp.HostFunc), inst, 0, 0, 2, 64); rc != errnoSuccess {
		t.Fatalf("fd_read errno %d", rc)
	}
	if n := u32(m, 64); n != 6 {
		t.Errorf("nread = %d, want 6", n)
	}
	if got := string(m[100:104]) + string(m[200:202]); got != "abcdef" {
		t.Errorf("read bytes = %q", got)
	}

	// fd_seek on the preopened file, then fd_read picks up from there.
	if rc := call(t, imp["fd_seek"].(*interp.HostFunc), inst, 3, 4, 0, 64); rc != errnoSuccess {
		t.Fatalf("fd_seek errno %d", rc)
	}
	if pos := u64(m, 64); pos != 4 {
		t.Errorf("seek pos = %d, want 4", pos)
	}
	put32(0, 100)
	put32(4, 3)
	if rc := call(t, imp["fd_read"].(*interp.HostFunc), inst, 3, 0, 1, 64); rc != errnoSuccess {
		t.Fatalf("fd_read(file) errno %d", rc)
	}
	if got := string(m[100:103]); got != "456" {
		t.Errorf("file read = %q, want 456", got)
	}

	// Seeking a stream is ESPIPE; seeking before the start is EINVAL.
	if rc := call(t, imp["fd_seek"].(*interp.HostFunc), inst, 0, 0, 0, 64); rc != errnoSpipe {
		t.Errorf("seek(stdin) errno %d, want ESPIPE", rc)
	}
	neg := int64(-100)
	if rc := call(t, imp["fd_seek"].(*interp.HostFunc), inst, 3, uint64(neg), 0, 64); rc != errnoInval {
		t.Errorf("seek(-100) errno %d, want EINVAL", rc)
	}
	// A seek whose result pointer faults does not move the position (7,
	// after the 3-byte read from 4).
	if rc := call(t, imp["fd_seek"].(*interp.HostFunc), inst, 3, 0, 0, 65536); rc != errnoFault {
		t.Errorf("seek(0) into OOB result errno %d, want EFAULT", rc)
	}
	if rc := call(t, imp["fd_seek"].(*interp.HostFunc), inst, 3, 0, 1, 64); rc != errnoSuccess {
		t.Fatalf("seek(CUR) errno %d", rc)
	}
	if pos := u64(m, 64); pos != 7 {
		t.Errorf("position after the faulting seek = %d, want 7", pos)
	}

	// fd_fdstat_get distinguishes stdio streams from regular files.
	if rc := call(t, imp["fd_fdstat_get"].(*interp.HostFunc), inst, 1, 300); rc != errnoSuccess {
		t.Fatal("fdstat(1) failed")
	}
	if m[300] != filetypeCharDevice {
		t.Errorf("fd 1 filetype = %d, want char device", m[300])
	}
	if rc := call(t, imp["fd_fdstat_get"].(*interp.HostFunc), inst, 3, 300); rc != errnoSuccess {
		t.Fatal("fdstat(3) failed")
	}
	if m[300] != filetypeRegularFile {
		t.Errorf("fd 3 filetype = %d, want regular file", m[300])
	}

	// fd_close, then everything on the fd is EBADF; closing twice too.
	if rc := call(t, imp["fd_close"].(*interp.HostFunc), inst, 3); rc != errnoSuccess {
		t.Fatal("fd_close failed")
	}
	if rc := call(t, imp["fd_read"].(*interp.HostFunc), inst, 3, 0, 1, 64); rc != errnoBadf {
		t.Errorf("read(closed) errno %d, want EBADF", rc)
	}
	if rc := call(t, imp["fd_close"].(*interp.HostFunc), inst, 3); rc != errnoBadf {
		t.Errorf("close(closed) errno %d, want EBADF", rc)
	}
	if rc := call(t, imp["fd_write"].(*interp.HostFunc), inst, 7, 0, 1, 64); rc != errnoBadf {
		t.Errorf("write(unknown fd) errno %d, want EBADF", rc)
	}
}

// TestFdWriteThroughWasm runs fd_write from inside a real module — the
// end-to-end shape every toolchain binary uses — and checks the capture.
func TestFdWriteThroughWasm(t *testing.T) {
	b := builder.New()
	fdWrite := b.ImportFunc(ModuleName, "fd_write",
		wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	b.Memory(1)
	b.Data(64, []byte("hello, wasi\n"))
	f := b.Func("_start", nil, nil)
	// iovec at 0: ptr 64, len 12; errno and nwritten land at 32/36.
	f.I32(0).I32(64).Store(wasm.OpI32Store, 0)
	f.I32(4).I32(12).Store(wasm.OpI32Store, 0)
	f.I32(1).I32(0).I32(1).I32(36).Call(fdWrite).Drop()
	f.Done()

	s := New(Config{})
	inst, err := interp.Instantiate(b.Build(), interp.Imports{ModuleName: s.Imports()})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := inst.Invoke("_start"); err != nil {
		t.Fatalf("_start: %v", err)
	}
	if got := string(s.Stdout()); got != "hello, wasi\n" {
		t.Errorf("stdout = %q", got)
	}
	if n := u32(inst.Memory.Data, 36); n != 12 {
		t.Errorf("nwritten = %d, want 12", n)
	}
}

func TestProcExit(t *testing.T) {
	s := New(Config{})
	hf := s.Imports()["proc_exit"].(*interp.HostFunc)
	_, err := hf.Fn(memInstance(), []interp.Value{42})
	var xe *ExitError
	if !errors.As(err, &xe) || xe.Code != 42 {
		t.Fatalf("proc_exit error = %v, want ExitError{42}", err)
	}
	if code, exited := s.Exit(); !exited || code != 42 {
		t.Errorf("Exit() = %d,%v, want 42,true", code, exited)
	}
}

// TestFailpoint arms the WASI syscall seam: every provider function must
// surface the injected fault as a typed host error before touching state.
func TestFailpoint(t *testing.T) {
	failpoint.DisarmAll()
	t.Cleanup(failpoint.DisarmAll)
	failpoint.Arm(failpoint.WASIHostCall)

	s := New(Config{})
	inst := memInstance()
	for name, v := range s.Imports() {
		hf := v.(*interp.HostFunc)
		args := make([]interp.Value, len(hf.Type.Params))
		_, err := hf.Fn(inst, args)
		if !errors.Is(err, failpoint.ErrInjected) {
			t.Errorf("%s: err = %v, want injected fault", name, err)
		}
	}
	if _, exited := s.Exit(); exited {
		t.Error("proc_exit recorded an exit despite the injected fault")
	}
	if len(s.Stdout()) != 0 {
		t.Error("stdout written despite the injected fault")
	}
}

// TestNoMemoryIsEfault: without linear memory every call that takes a guest
// pointer and passes its fd checks is EFAULT — also when it would write
// nothing (no args or env, zero random bytes) and when another argument is
// bad too (fd_seek's whence).
func TestNoMemoryIsEfault(t *testing.T) {
	s := New(Config{Files: []File{{Name: "data.bin"}}})
	imp := s.Imports()
	inst := &interp.Instance{} // module without linear memory
	for _, c := range []struct {
		name string
		args []interp.Value
	}{
		{"args_sizes_get", []interp.Value{0, 4}},
		{"args_get", []interp.Value{0, 0}},
		{"environ_sizes_get", []interp.Value{0, 4}},
		{"environ_get", []interp.Value{0, 0}},
		{"clock_time_get", []interp.Value{0, 0, 0}},
		{"random_get", []interp.Value{0, 0}},
		{"fd_write", []interp.Value{1, 0, 0, 0}},
		{"fd_read", []interp.Value{0, 0, 0, 0}},
		{"fd_seek", []interp.Value{3, 0, 9, 0}},
		{"fd_fdstat_get", []interp.Value{1, 0}},
	} {
		if rc := call(t, imp[c.name].(*interp.HostFunc), inst, c.args...); rc != errnoFault {
			t.Errorf("%s%v: errno %d, want EFAULT", c.name, c.args, rc)
		}
	}
}

// FuzzWASIGuestPointers calls one preview1 import (any but proc_exit) with
// fuzzed i32 arguments and i64, against one zeroed page of memory or none.
// A call must never panic or fail with a Go error, its errno must be one
// the provider reports, and without memory every call that takes a pointer
// and passes its fd checks must be EFAULT.
func FuzzWASIGuestPointers(f *testing.F) {
	var names []string
	for name := range New(Config{}).Imports() {
		if name != "proc_exit" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	pick := func(name string) uint8 { return uint8(sort.SearchStrings(names, name)) }

	// In-bounds pointers.
	f.Add(pick("args_sizes_get"), uint32(0), uint32(4), uint32(0), uint32(0), uint64(0), true)
	f.Add(pick("args_get"), uint32(16), uint32(64), uint32(0), uint32(0), uint64(0), true)
	f.Add(pick("environ_get"), uint32(16), uint32(128), uint32(0), uint32(0), uint64(0), true)
	f.Add(pick("clock_time_get"), uint32(0), uint32(32), uint32(0), uint32(0), uint64(1), true)
	f.Add(pick("fd_write"), uint32(1), uint32(0), uint32(2), uint32(64), uint64(0), true)
	f.Add(pick("fd_read"), uint32(0), uint32(0), uint32(2), uint32(64), uint64(0), true)
	f.Add(pick("fd_seek"), uint32(3), uint32(0), uint32(64), uint32(0), uint64(4), true)
	f.Add(pick("fd_fdstat_get"), uint32(3), uint32(300), uint32(0), uint32(0), uint64(0), true)
	f.Add(pick("fd_close"), uint32(3), uint32(0), uint32(0), uint32(0), uint64(0), true)
	// Ranges straddling the end of memory.
	f.Add(pick("random_get"), uint32(65530), uint32(16), uint32(0), uint32(0), uint64(0), true)
	f.Add(pick("fd_fdstat_get"), uint32(1), uint32(65520), uint32(0), uint32(0), uint64(0), true)
	f.Add(pick("args_get"), uint32(65532), uint32(65534), uint32(0), uint32(0), uint64(0), true)
	// Pointers that wrap a 32-bit address computation.
	f.Add(pick("clock_time_get"), uint32(0), uint32(0xFFFFFFF8), uint32(0), uint32(0), uint64(0), true)
	f.Add(pick("fd_seek"), uint32(3), uint32(0), uint32(0xFFFFFFF8), uint32(0), uint64(0), true)
	f.Add(pick("environ_sizes_get"), uint32(0xFFFFFFF8), uint32(0), uint32(0), uint32(0), uint64(0), true)
	// An iovs_len that walks off the end of memory.
	f.Add(pick("fd_write"), uint32(2), uint32(0), uint32(0xFFFFFFFF), uint32(64), uint64(0), true)
	f.Add(pick("fd_read"), uint32(3), uint32(8), uint32(0xFFFFFFFF), uint32(64), uint64(0), true)
	// No memory: zero bytes at address 0 still name memory the module
	// lacks, and the pointer is checked before fd_seek's whence.
	f.Add(pick("random_get"), uint32(0), uint32(0), uint32(0), uint32(0), uint64(0), false)
	f.Add(pick("fd_seek"), uint32(3), uint32(9), uint32(0), uint32(0), uint64(0), false)

	f.Fuzz(func(t *testing.T, which uint8, a0, a1, a2, a3 uint32, x uint64, withMem bool) {
		s := New(Config{
			Args:  []string{"prog", "-v"},
			Env:   []string{"A=1"},
			Stdin: []byte("abcdef"),
			Files: []File{{Name: "data.bin", Data: []byte("0123456789")}},
		})
		name := names[int(which)%len(names)]
		hf := s.Imports()[name].(*interp.HostFunc)
		i32s := []uint32{a0, a1, a2, a3}
		var args []interp.Value
		for _, p := range hf.Type.Params {
			if p == wasm.I64 {
				args = append(args, x)
				continue
			}
			args = append(args, interp.Value(i32s[0]))
			i32s = i32s[1:]
		}
		inst := &interp.Instance{}
		if withMem {
			inst = memInstance()
		}
		res, err := hf.Fn(inst, args)
		if err != nil {
			t.Fatalf("%s%v: Go error %v", name, args, err)
		}
		if len(res) != 1 {
			t.Fatalf("%s%v: %d results, want an errno", name, args, len(res))
		}
		rc := uint32(res[0])
		switch rc {
		case errnoSuccess, errnoBadf, errnoFault, errnoInval, errnoSpipe:
		default:
			t.Fatalf("%s%v: errno %d is not one the provider reports", name, args, rc)
		}
		if withMem || name == "fd_close" {
			return
		}
		fdCheckFailed := strings.HasPrefix(name, "fd_") && (rc == errnoBadf || rc == errnoSpipe)
		if rc != errnoFault && !fdCheckFailed {
			t.Fatalf("%s%v without memory: errno %d, want EFAULT", name, args, rc)
		}
	})
}
