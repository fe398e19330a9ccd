package wasm

import (
	"reflect"
	"testing"
)

func TestOpcodeClassification(t *testing.T) {
	// Every known opcode must fall into exactly one instrumentation class
	// (the partition the instrumenter relies on).
	classes := func(op Opcode) []string {
		var cs []string
		if op.IsLoad() {
			cs = append(cs, "load")
		}
		if op.IsStore() {
			cs = append(cs, "store")
		}
		if op.IsConst() {
			cs = append(cs, "const")
		}
		if op.IsUnary() {
			cs = append(cs, "unary")
		}
		if op.IsBinary() {
			cs = append(cs, "binary")
		}
		return cs
	}
	for op := Opcode(0); op < 0xC0; op++ {
		if !op.Known() {
			continue
		}
		if cs := classes(op); len(cs) > 1 {
			t.Errorf("%s is in multiple classes: %v", op, cs)
		}
	}
	// Spot checks.
	if !OpI32Load8S.IsLoad() || OpI32Store.IsLoad() {
		t.Error("load classification wrong")
	}
	if !OpI64Store32.IsStore() || OpI64Load32S.IsStore() {
		t.Error("store classification wrong")
	}
	if !OpI32Eqz.IsUnary() || !OpF64PromoteF32.IsUnary() || OpI32Eq.IsUnary() {
		t.Error("unary classification wrong")
	}
	if !OpI32Add.IsBinary() || !OpF64Ge.IsBinary() || OpI32Clz.IsBinary() {
		t.Error("binary classification wrong")
	}
}

func TestNumericSigCoversAllNumerics(t *testing.T) {
	count := 0
	for op := Opcode(0x41); op <= Opcode(0xBF); op++ {
		if !op.Known() {
			t.Errorf("gap in numeric opcode space at 0x%02x", byte(op))
			continue
		}
		in, out, ok := NumericSig(op)
		if !ok {
			t.Errorf("NumericSig missing for %s", op)
			continue
		}
		count++
		if len(out) != 1 {
			t.Errorf("%s should produce exactly one value, got %d", op, len(out))
		}
		if op.IsConst() && len(in) != 0 {
			t.Errorf("%s should take no operands", op)
		}
		if op.IsUnary() && len(in) != 1 {
			t.Errorf("%s should take one operand", op)
		}
		if op.IsBinary() && len(in) != 2 {
			t.Errorf("%s should take two operands", op)
		}
	}
	// 4 consts + 123 numeric instructions (the paper's count: "123 numeric
	// instructions alone").
	if count != 127 {
		t.Errorf("expected 127 fixed-signature opcodes (4 const + 123 numeric), got %d", count)
	}
}

func TestLoadStoreTypes(t *testing.T) {
	cases := []struct {
		op   Opcode
		t    ValType
		size uint32
	}{
		{OpI32Load, I32, 4}, {OpI64Load, I64, 8}, {OpF32Load, F32, 4}, {OpF64Load, F64, 8},
		{OpI32Load8S, I32, 1}, {OpI32Load16U, I32, 2},
		{OpI64Load8U, I64, 1}, {OpI64Load16S, I64, 2}, {OpI64Load32U, I64, 4},
		{OpI32Store8, I32, 1}, {OpI64Store32, I64, 4}, {OpF64Store, F64, 8},
	}
	for _, c := range cases {
		vt, size := c.op.LoadStoreType()
		if vt != c.t || size != c.size {
			t.Errorf("%s: got (%s, %d), want (%s, %d)", c.op, vt, size, c.t, c.size)
		}
	}
}

func TestFuncTypeEqualAndKey(t *testing.T) {
	a := FuncType{Params: []ValType{I32, F64}, Results: []ValType{I64}}
	b := FuncType{Params: []ValType{I32, F64}, Results: []ValType{I64}}
	c := FuncType{Params: []ValType{I32}, Results: []ValType{I64}}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("FuncType.Equal wrong")
	}
	if a.Key() == c.Key() {
		t.Error("distinct types must have distinct keys")
	}
	if a.String() != "[i32 f64] -> [i64]" {
		t.Errorf("String: %s", a.String())
	}
}

func TestModuleIndexSpaces(t *testing.T) {
	m := &Module{
		Types: []FuncType{
			{Results: []ValType{I32}},
			{Params: []ValType{F64}},
		},
		Imports: []Import{
			{Module: "env", Name: "f", Kind: ExternFunc, TypeIdx: 0},
			{Module: "env", Name: "g", Kind: ExternGlobal, Global: GlobalType{Type: I64}},
			{Module: "env", Name: "h", Kind: ExternFunc, TypeIdx: 1},
		},
		Funcs:   []Func{{TypeIdx: 1}},
		Globals: []Global{{Type: GlobalType{Type: F32, Mutable: true}}},
	}
	if got := m.NumImportedFuncs(); got != 2 {
		t.Errorf("NumImportedFuncs = %d", got)
	}
	if got := m.NumFuncs(); got != 3 {
		t.Errorf("NumFuncs = %d", got)
	}
	ft, err := m.FuncType(2) // the defined function
	if err != nil || len(ft.Params) != 1 || ft.Params[0] != F64 {
		t.Errorf("FuncType(2) = %v, %v", ft, err)
	}
	if _, err := m.FuncType(3); err == nil {
		t.Error("FuncType(3) should fail")
	}
	if name := m.FuncName(0); name != "env.f" {
		t.Errorf("FuncName(0) = %q", name)
	}
	if name := m.FuncName(2); name != "func2" {
		t.Errorf("FuncName(2) = %q", name)
	}

	// The Index resolves the same spaces once.
	ix := NewIndex(m)
	if ix.NumImportedFuncs() != 2 || ix.NumFuncs() != 3 || ix.NumImportedGlobals() != 1 || ix.NumGlobals() != 2 {
		t.Errorf("Index counts: %d imported funcs of %d, %d imported globals of %d",
			ix.NumImportedFuncs(), ix.NumFuncs(), ix.NumImportedGlobals(), ix.NumGlobals())
	}
	for f := uint32(0); f < 3; f++ {
		want, _ := m.FuncType(f)
		if got, err := ix.FuncType(f); err != nil || !got.Equal(want) {
			t.Errorf("Index.FuncType(%d) = %v, %v; Module.FuncType gives %v", f, got, err, want)
		}
		if got, want := ix.FuncName(f), m.FuncName(f); got != want {
			t.Errorf("Index.FuncName(%d) = %q, Module.FuncName gives %q", f, got, want)
		}
	}
	if ti, err := ix.FuncTypeIdx(1); err != nil || ti != 1 {
		t.Errorf("Index.FuncTypeIdx(1) = %d, %v", ti, err)
	}
	if _, err := ix.FuncType(3); err == nil {
		t.Error("Index.FuncType(3) should fail")
	}
	gt, err := ix.GlobalType(0) // imported
	if err != nil || gt.Type != I64 {
		t.Errorf("GlobalType(0) = %v, %v", gt, err)
	}
	gt, err = ix.GlobalType(1) // defined
	if err != nil || gt.Type != F32 || !gt.Mutable {
		t.Errorf("GlobalType(1) = %v, %v", gt, err)
	}
	if _, err := ix.GlobalType(2); err == nil {
		t.Error("GlobalType(2) should fail")
	}
	if ix.HasTable() || ix.HasMemory() {
		t.Error("module has neither table nor memory")
	}
	m.Imports = append(m.Imports, Import{Module: "env", Name: "mem", Kind: ExternMemory})
	if ix := NewIndex(m); !ix.HasMemory() || ix.HasTable() {
		t.Error("imported memory not indexed")
	}
}

func TestAddTypeInterning(t *testing.T) {
	m := &Module{}
	a := m.AddType(FuncType{Params: []ValType{I32}})
	b := m.AddType(FuncType{Params: []ValType{I64}})
	c := m.AddType(FuncType{Params: []ValType{I32}})
	if a == b || a != c {
		t.Errorf("interning broken: a=%d b=%d c=%d", a, b, c)
	}
	if len(m.Types) != 2 {
		t.Errorf("expected 2 interned types, got %d", len(m.Types))
	}
}

func TestConstValue(t *testing.T) {
	if v := I32Const(-1).ConstValue(); v != 0xFFFFFFFF {
		t.Errorf("i32.const -1 bits = %#x", v)
	}
	if v := I64ConstInstr(-1).ConstValue(); v != 0xFFFFFFFFFFFFFFFF {
		t.Errorf("i64.const -1 bits = %#x", v)
	}
	if v := F32ConstInstr(1.0).ConstValue(); v != 0x3F800000 {
		t.Errorf("f32.const 1.0 bits = %#x", v)
	}
	if v := F64ConstInstr(1.0).ConstValue(); v != 0x3FF0000000000000 {
		t.Errorf("f64.const 1.0 bits = %#x", v)
	}
}

func TestBlockType(t *testing.T) {
	if got := BlockEmpty.Results(); len(got) != 0 {
		t.Errorf("empty block has results %v", got)
	}
	if got := BlockType(I32).Results(); len(got) != 1 || got[0] != I32 {
		t.Errorf("i32 block results %v", got)
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"i32.const 42":              I32Const(42),
		"local.tee 5":               LocalTee(5),
		"local.get 3":               LocalGet(3),
		"i32.load offset=8 align=2": MemInstr(OpI32Load, 2, 8),
		"call 7":                    Call(7),
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}

	var pool []uint32
	bt := AppendBrTable(&pool, []uint32{1, 2}, 0)
	if got := bt.StringWithPool(pool); got != "br_table 1 2 0" {
		t.Errorf("br_table StringWithPool = %q", got)
	}
	if got := bt.String(); got != "br_table [2 targets] 0" {
		t.Errorf("br_table String = %q", got)
	}
}

// TestKnownMatchesNames pins the Known table to the name map it is built
// from, over every byte: the 0xFC prefix is not itself an opcode.
func TestKnownMatchesNames(t *testing.T) {
	for b := 0; b < 256; b++ {
		op := Opcode(b)
		if _, named := opNames[op]; op.Known() != named {
			t.Errorf("0x%02x: Known %v, named %v", b, op.Known(), named)
		}
	}
	if OpMiscPrefix.Known() {
		t.Error("0xfc prefix reported as a known opcode")
	}
}

func TestControlMatches(t *testing.T) {
	body := []Instr{
		BlockInstr(BlockEmpty), // 0
		LoopInstr(BlockEmpty),  // 1
		I32Const(1),            // 2
		IfInstr(BlockEmpty),    // 3
		{Op: OpElse},           // 4
		End(),                  // 5 (if)
		End(),                  // 6 (loop)
		End(),                  // 7 (block)
		End(),                  // 8 (function)
	}
	var cm ControlMatch
	// A longer body first, so the second match reuses buffers that hold
	// its stale entries.
	if err := cm.Match(append(append([]Instr(nil), body[:8]...), IfInstr(BlockEmpty), End(), End())); err != nil {
		t.Fatal(err)
	}
	if err := cm.Match(body); err != nil {
		t.Fatal(err)
	}
	wantEnd := []int32{7, 6, -1, 5, 5, -1, -1, -1, -1}
	wantElse := []int32{-1, -1, -1, 4, -1, -1, -1, -1, -1}
	if !reflect.DeepEqual(cm.End, wantEnd) || !reflect.DeepEqual(cm.Else, wantElse) {
		t.Errorf("End = %v, want %v; Else = %v, want %v", cm.End, wantEnd, cm.Else, wantElse)
	}

	for _, c := range []struct {
		body []Instr
		err  string
	}{
		{[]Instr{BlockInstr(BlockEmpty), End()}, "missing function-level end"},
		{[]Instr{{Op: OpElse}, End()}, "else without open if at instr 0"},
		{[]Instr{IfInstr(BlockEmpty), {Op: OpElse}, {Op: OpElse}, End(), End()}, "else without open if at instr 2"},
		{[]Instr{End(), {Op: OpNop}, End()}, "function-level end at instr 0 is not final"},
		{[]Instr{BlockInstr(BlockEmpty), BlockInstr(BlockEmpty), End()}, "1 unclosed blocks at end of body"},
	} {
		if err := cm.Match(c.body); err == nil || err.Error() != c.err {
			t.Errorf("Match(%v) = %v, want %q", c.body, err, c.err)
		}
	}
}
