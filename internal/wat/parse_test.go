package wat_test

import (
	"strings"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/interp"
	"wasabi/internal/validate"
	"wasabi/internal/wat"
)

const factorialWat = `
(module
  ;; iterative factorial with a loop and named locals
  (memory 1)
  (global $calls (mut i32) (i32.const 0))
  (func $fact (export "fact") (param $n i32) (result i32)
    (local $acc i32)
    global.get $calls
    i32.const 1
    i32.add
    global.set $calls
    i32.const 1
    local.set $acc
    block
      loop
        local.get $n
        i32.const 1
        i32.le_s
        br_if 1
        local.get $acc
        local.get $n
        i32.mul
        local.set $acc
        local.get $n
        i32.const 1
        i32.sub
        local.set $n
        br 0
      end
    end
    local.get $acc
  )
  (func $store (export "store") (param i32) (result i32)
    i32.const 16
    local.get 0
    i32.store offset=4
    i32.const 16
    i32.load offset=4
  )
)`

func TestParseAndRun(t *testing.T) {
	m, err := wat.Parse(factorialWat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatalf("validate: %v\n%s", err, wat.ToString(m))
	}
	inst, err := interp.Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int32{{0, 1}, {1, 1}, {5, 120}, {10, 3628800}} {
		res, err := inst.Invoke("fact", interp.I32(c[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got := interp.AsI32(res[0]); got != c[1] {
			t.Errorf("fact(%d) = %d, want %d", c[0], got, c[1])
		}
	}
	res, err := inst.Invoke("store", interp.I32(77))
	if err != nil {
		t.Fatal(err)
	}
	if got := interp.AsI32(res[0]); got != 77 {
		t.Errorf("store round-trip = %d", got)
	}
}

// TestParsedModuleInstruments: .wat source → parse → instrument → run under
// an analysis, end to end.
func TestParsedModuleInstruments(t *testing.T) {
	m, err := wat.Parse(factorialWat)
	if err != nil {
		t.Fatal(err)
	}
	mix := analyses.NewInstructionMix()
	engine, err := wasabi.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := engine.Instrument(m, wasabi.CapsOf(mix))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(mix)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("fact", interp.I32(6))
	if err != nil {
		t.Fatal(err)
	}
	if got := interp.AsI32(res[0]); got != 720 {
		t.Errorf("fact(6) = %d", got)
	}
	if mix.Counts["i32.mul"] != 5 {
		t.Errorf("observed %d multiplications, want 5", mix.Counts["i32.mul"])
	}
}

const richWat = `
(module
  (import "env" "log" (func $log (param i32)))
  (table 2 funcref)
  (func $a (param i32) (result i32) local.get 0)
  (func $b (param i32) (result i32) local.get 0 i32.const 2 i32.mul)
  (elem (i32.const 0) $a $b)
  (func $go (export "go") (param i32) (result i32)
    local.get 0
    call $log
    local.get 0
    local.get 0
    i32.const 1
    i32.and
    call_indirect (param i32) (result i32)
  )
  (data (i32.const 0) "hi\00")
  (memory 1)
  (start $setup)
  (func $setup)
)`

func TestParseImportsTablesElemStart(t *testing.T) {
	m, err := wat.Parse(richWat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var logged []int32
	inst, err := interp.Instantiate(m, interp.Imports{"env": {
		"log": &interp.HostFunc{
			Type: m.Types[m.Imports[0].TypeIdx],
			Fn: func(_ *interp.Instance, args []interp.Value) ([]interp.Value, error) {
				logged = append(logged, interp.AsI32(args[0]))
				return nil, nil
			},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("go", interp.I32(7)) // odd -> table slot 1 -> $b
	if err != nil {
		t.Fatal(err)
	}
	if got := interp.AsI32(res[0]); got != 14 {
		t.Errorf("go(7) = %d, want 14", got)
	}
	res, _ = inst.Invoke("go", interp.I32(4)) // even -> $a
	if got := interp.AsI32(res[0]); got != 4 {
		t.Errorf("go(4) = %d, want 4", got)
	}
	if len(logged) != 2 || logged[0] != 7 {
		t.Errorf("logged = %v", logged)
	}
	if len(m.Datas) != 1 || string(m.Datas[0].Data) != "hi\x00" {
		t.Errorf("data = %q", m.Datas)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not a module":  "(func)",
		"unknown instr": "(module (func i32.bogus))",
		"unknown name":  "(module (func call $nope))",
		"unterminated":  "(module (func",
		"bad field":     "(module (fnuc))",
		"folded body":   "(module (func (result i32) (i32.const 1)))",
	}
	for name, src := range cases {
		if _, err := wat.Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestCommentsAndStrings(t *testing.T) {
	src := `(module
	  ;; line comment
	  (; block (; nested ;) comment ;)
	  (memory 1)
	  (data (i32.const 0) "\41\42C\n")
	  (func (export "f") (result i32) i32.const 3)
	)`
	m, err := wat.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Datas[0].Data) != "ABC\n" {
		t.Errorf("escapes: %q", m.Datas[0].Data)
	}
	if !strings.Contains(wat.ToString(m), "i32.const 3") {
		t.Error("body lost")
	}
}
