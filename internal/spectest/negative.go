package spectest

import (
	"wasabi/internal/wasm"
)

// NegativeCase is one deliberately invalid module. Every consumer of
// untrusted modules — the validator, the static-analysis CFG builder, the
// engine's default instrumentation path — must reject it with an error and
// never panic.
type NegativeCase struct {
	Name   string
	Module func() *wasm.Module
	// CFGMustErr marks cases whose malformation is structural (unbalanced
	// control, out-of-range labels, bad br_table spans, missing bodies):
	// the CFG builder, and so static.PlanFor and static.Profile, must fail
	// on these. Pure type errors (the rest) are out of its scope — it must
	// merely not panic on them.
	CFGMustErr bool
}

// badFunc assembles a single-function module with the given signature and
// raw body, bypassing the builder's conveniences so bodies can be left
// unterminated or otherwise malformed.
func badFunc(params, results []wasm.ValType, body ...wasm.Instr) *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: params, Results: results})
	m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: ti, Body: body})
	return m
}

// NegativeCorpus returns the invalid-module corpus: one case per
// malformation class the decoder can structurally represent.
func NegativeCorpus() []NegativeCase {
	i32 := []wasm.ValType{wasm.I32}
	return []NegativeCase{
		{
			Name: "stack-underflow",
			Module: func() *wasm.Module {
				return badFunc(nil, i32, wasm.Instr{Op: wasm.OpI32Add}, wasm.End())
			},
		},
		{
			Name: "type-mismatch",
			Module: func() *wasm.Module {
				return badFunc(nil, i32,
					wasm.F64ConstInstr(1), wasm.I32Const(1), wasm.Instr{Op: wasm.OpI32Add}, wasm.End())
			},
		},
		{
			Name: "local-out-of-range",
			Module: func() *wasm.Module {
				return badFunc(i32, i32, wasm.LocalGet(5), wasm.End())
			},
		},
		{
			Name: "global-out-of-range",
			Module: func() *wasm.Module {
				return badFunc(nil, i32, wasm.GlobalGet(2), wasm.End())
			},
		},
		{
			Name: "call-out-of-range",
			Module: func() *wasm.Module {
				return badFunc(nil, nil, wasm.Call(99), wasm.End())
			},
		},
		{
			Name: "missing-result",
			Module: func() *wasm.Module {
				return badFunc(nil, i32, wasm.End())
			},
		},
		{
			Name: "load-without-memory",
			Module: func() *wasm.Module {
				return badFunc(nil, i32,
					wasm.I32Const(0), wasm.Instr{Op: wasm.OpI32Load}, wasm.End())
			},
		},
		{
			Name: "branch-depth-out-of-range",
			Module: func() *wasm.Module {
				return badFunc(nil, nil, wasm.Br(4), wasm.End())
			},
			CFGMustErr: true,
		},
		{
			Name: "unclosed-block",
			Module: func() *wasm.Module {
				return badFunc(nil, nil, wasm.BlockInstr(wasm.BlockEmpty), wasm.End())
			},
			CFGMustErr: true, // block's end consumes the function-level end
		},
		{
			Name: "else-without-if",
			Module: func() *wasm.Module {
				return badFunc(nil, nil, wasm.Instr{Op: wasm.OpElse}, wasm.End())
			},
			CFGMustErr: true,
		},
		{
			Name: "body-missing-end",
			Module: func() *wasm.Module {
				return badFunc(nil, i32, wasm.I32Const(1))
			},
			CFGMustErr: true,
		},
		{
			Name: "empty-body",
			Module: func() *wasm.Module {
				return badFunc(nil, nil)
			},
			CFGMustErr: true,
		},
		{
			// Recognized post-MVP instructions the runtime still does not
			// implement (see wasm.UnsupportedInfo): decodable, but rejected
			// by validation as unsupported.
			Name: "unsupported-memory-init",
			Module: func() *wasm.Module {
				m := badFunc(nil, nil,
					wasm.I32Const(0), wasm.I32Const(0), wasm.I32Const(8),
					wasm.Instr{Op: wasm.OpMiscPrefix, Idx: wasm.MiscMemoryInit}, wasm.End())
				m.Memories = append(m.Memories, wasm.Limits{Min: 1})
				return m
			},
		},
		{
			Name: "unsupported-data-drop",
			Module: func() *wasm.Module {
				return badFunc(nil, nil,
					wasm.Instr{Op: wasm.OpMiscPrefix, Idx: wasm.MiscDataDrop}, wasm.End())
			},
		},
		{
			Name: "unsupported-table-copy",
			Module: func() *wasm.Module {
				return badFunc(nil, nil,
					wasm.I32Const(0), wasm.I32Const(0), wasm.I32Const(8),
					wasm.Instr{Op: wasm.OpMiscPrefix, Idx: wasm.MiscTableCopy}, wasm.End())
			},
		},
		{
			Name: "type-index-out-of-range",
			Module: func() *wasm.Module {
				m := &wasm.Module{}
				m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: 9, Body: []wasm.Instr{wasm.End()}})
				return m
			},
			CFGMustErr: true,
		},
		{
			Name: "br-table-span-exceeds-pool",
			Module: func() *wasm.Module {
				return badFunc(i32, nil,
					wasm.LocalGet(0), wasm.BrTableInstr(0, 2, 3), wasm.End())
			},
			CFGMustErr: true,
		},
	}
}
