// Package wasabi is a Go reproduction of "Wasabi: A Framework for
// Dynamically Analyzing WebAssembly" (Lehmann & Pradel, ASPLOS 2019).
//
// Wasabi instruments a WebAssembly binary ahead of time so that every
// selected instruction additionally calls an analysis hook, then dispatches
// those low-level hooks to a high-level analysis API of 23 hooks. The API is
// layered the way the paper's workflow is used — instrument once, analyze
// many times:
//
//	engine, err := wasabi.NewEngine()                       // process-wide, create once
//	compiled, err := engine.Instrument(m, wasabi.AllCaps)   // instrument ONCE
//
//	sess, err := compiled.NewSession(myAnalysis)            // bind one analysis...
//	inst, err := sess.Instantiate("app", programImports)    // ...to one or more instances
//	inst.Invoke("main")                                     // hooks fire into myAnalysis
//
// A second analysis (or a second goroutine) gets its own Session off the
// same CompiledAnalysis without re-instrumenting; a second module
// instantiated under another name can import the first instance's exports
// through the engine's registry (multi-module linking).
//
// An analysis is any value implementing a subset of the hook interfaces in
// internal/analysis (re-exported here), e.g. wasabi.BinaryHooker for the
// paper's cryptominer detector (Figure 1).
//
// # Value ownership
//
// The value vectors handed to the call/return hooks (CallPre args, CallPost
// and Return results) and the BrTable target table are BORROWED: they alias
// engine-pooled buffers valid only for the duration of the hook call. Copy
// with wasabi.Values(args).Clone() to retain one. Every scalar hook argument
// is a plain copy and may always be kept. This is what makes slice-carrying
// hook dispatch allocation-free.
//
// # Event streams
//
// Beside the callback API there is a stream-native surface: Session.Stream
// compiles the session's hooks into record encoders that append packed,
// fixed-width Event records to the session's emitter instead of calling
// analysis Go code, and the consumer pulls whole batches (Stream.Next /
// Stream.Serve) — on its own goroutine if desired. Session.Fanout publishes
// the same batches to any number of subscriptions. Stream-native analyses implement
// EventStreamer (declaring their event classes) and EventSink (consuming
// batches); batches follow the same borrow rule as hook value vectors. See
// stream.go and the README's "Event streams" section.
package wasabi

import (
	"wasabi/internal/analysis"
	"wasabi/internal/core"
)

// Re-exported core types, so analyses and embedders only import this package.
type (
	// Location identifies an instruction (function index, instruction index).
	Location = analysis.Location
	// Value is a typed WebAssembly value.
	Value = analysis.Value
	// Values is a vector of hook values; the call/return hook vectors are
	// borrowed and must be Clone()d to retain (see the package comment).
	Values = analysis.Values
	// MemArg describes a memory access (address + static offset).
	MemArg = analysis.MemArg
	// BranchTarget pairs a raw branch label with its resolved location.
	BranchTarget = analysis.BranchTarget
	// BranchTargets is the borrowed BrTable target table; Clone() to retain.
	BranchTargets = analysis.BranchTargets
	// BlockKind names block kinds seen by begin/end hooks.
	BlockKind = analysis.BlockKind
	// ModuleInfo is the static module information handed to analyses.
	ModuleInfo = analysis.ModuleInfo
	// HookSet selects instruction classes for selective instrumentation.
	HookSet = analysis.HookSet
	// Metadata is the static instrumentation output consumed by the runtime.
	Metadata = core.Metadata

	// The hook interfaces an analysis may implement.
	NopHooker         = analysis.NopHooker
	UnreachableHooker = analysis.UnreachableHooker
	IfHooker          = analysis.IfHooker
	BrHooker          = analysis.BrHooker
	BrIfHooker        = analysis.BrIfHooker
	BrTableHooker     = analysis.BrTableHooker
	BeginHooker       = analysis.BeginHooker
	EndHooker         = analysis.EndHooker
	ConstHooker       = analysis.ConstHooker
	DropHooker        = analysis.DropHooker
	SelectHooker      = analysis.SelectHooker
	UnaryHooker       = analysis.UnaryHooker
	BinaryHooker      = analysis.BinaryHooker
	LocalHooker       = analysis.LocalHooker
	GlobalHooker      = analysis.GlobalHooker
	LoadHooker        = analysis.LoadHooker
	StoreHooker       = analysis.StoreHooker
	MemorySizeHooker  = analysis.MemorySizeHooker
	MemoryGrowHooker  = analysis.MemoryGrowHooker
	CallPreHooker     = analysis.CallPreHooker
	CallPostHooker    = analysis.CallPostHooker
	ReturnHooker      = analysis.ReturnHooker
	StartHooker       = analysis.StartHooker
)
