// Package static is the module-level static-analysis layer over decoded
// function bodies: control-flow graphs with block reachability and a static
// call graph. It computes only facts that something reads; a new fact
// lands together with its consumer.
//
// It has two entry points, and both check structure only, so they accept
// and reject the same modules with the same errors. PlanFor computes only
// what core.Plan holds — call-graph reachability and the spans of each
// function's reachable blocks — and Profile the counts the `wasabi
// -inspect` report prints. Both walk the CFGs the same way (eachCFG), in
// buffers the workers reuse from function to function, with one CFG
// builder, which pairs each body's blocks with their ends through
// wasm.ControlMatch: everything here works on ORIGINAL instruction indices
// of uninstrumented bodies, and malformed bodies surface as errors, never
// panics. Operand stack heights are not a static fact here: the
// interpreter's compile pass computes them (interp.StackHighWater).
package static

import (
	"fmt"

	"wasabi/internal/core"
	"wasabi/internal/wasm"
)

// Block is one basic block of a function body: a maximal straight-line run
// of instructions [Start, End] (closed range of original instruction
// indices) entered only at Start and left only after End. It is the span
// type the instrumentation plan places probes by.
type Block = core.BlockSpan

// CFG is the control-flow graph of one function body. Block 0 is the entry
// block, and Reachable marks the blocks reachable from it. Block ids are
// int32.
type CFG struct {
	Blocks    []Block
	Reachable []bool

	// blockAt maps an original instruction index to the id of the block
	// containing it. The successors of block b are
	// succ[succOff[b]:succOff[b+1]], deduplicated, in discovery order.
	blockAt []int32
	succOff []int32
	succ    []int32
}

// Succs returns the ids of block b's successors, deduplicated, in
// discovery order. The slice aliases the graph; do not modify it.
func (g *CFG) Succs(b int) []int32 { return g.succ[g.succOff[b]:g.succOff[b+1]] }

// NumReachable counts the blocks reachable from the entry.
func (g *CFG) NumReachable() int {
	n := 0
	for _, r := range g.Reachable {
		if r {
			n++
		}
	}
	return n
}

// spans returns the spans of the reachable blocks, in block order, in a
// slice of exactly their number.
func (g *CFG) spans() []core.BlockSpan {
	spans := make([]core.BlockSpan, 0, g.NumReachable())
	for b, r := range g.Reachable {
		if r {
			spans = append(spans, g.Blocks[b])
		}
	}
	return spans
}

// ctrl kinds of the frame stack used while resolving branches: a branch to
// a loop lands at its body, one to the function frame returns, and one to
// any other frame (block, if or else) lands after its end.
type frameKind uint8

const (
	frFunc frameKind = iota
	frBlock
	frLoop
)

type frame struct {
	kind  frameKind
	begin int // opener instruction index; -1 for the function frame
	end   int // matching end instruction index
}

// builder builds control-flow graphs one function body at a time. Every
// slice it holds, the graph's own included, is reused by the next build,
// so a worker that builds many graphs allocates only when a body outgrows
// its buffers. A graph that must outlive the next build comes from a
// builder of its own.
type builder struct {
	g CFG

	match wasm.ControlMatch
	ctrl  []frame
	work  []int32
}

// resize returns s with length n, reusing its array when it is big enough.
// The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// endsBlock reports whether the instruction at an index terminates a basic
// block, i.e. the next instruction (if any) starts a new one. Frame
// boundaries (loop/if/else/end) and transfers (br*/return/unreachable) do;
// plain `block` openers do not — their body is entered by fallthrough only.
func endsBlock(op wasm.Opcode) bool {
	switch op {
	case wasm.OpLoop, wasm.OpIf, wasm.OpElse, wasm.OpEnd,
		wasm.OpBr, wasm.OpBrIf, wasm.OpBrTable, wasm.OpReturn, wasm.OpUnreachable:
		return true
	}
	return false
}

// addEdge adds an edge from the block whose successors are being collected
// (the last one opened in succOff) to block to, unless it is there already.
func (b *builder) addEdge(to int32) {
	g := &b.g
	for _, s := range g.succ[g.succOff[len(g.succOff)-1]:] {
		if s == to {
			return
		}
	}
	g.succ = append(g.succ, to)
}

// resolve adds the edge of a branch with the given relative label, which
// lands exactly where the instrumenter's resolveTarget does: loops branch
// back to begin+1, the function label means return (no edge), everything
// else lands after the frame's matching end. Neither lies past the body:
// the control match puts every end but the function's before the final one.
func (b *builder) resolve(label uint32) error {
	if int(label) >= len(b.ctrl) {
		return fmt.Errorf("branch label %d exceeds control depth %d", label, len(b.ctrl))
	}
	fr := b.ctrl[len(b.ctrl)-1-int(label)]
	switch fr.kind {
	case frLoop:
		b.addEdge(b.g.blockAt[fr.begin+1])
	case frFunc:
	default:
		b.addEdge(b.g.blockAt[fr.end+1])
	}
	return nil
}

// build builds the control-flow graph of one decoded function body into
// b.g. Malformed bodies (unbalanced control, out-of-range labels, bad
// br_table spans, empty bodies) return an error.
func (b *builder) build(f *wasm.Func) error {
	body := f.Body
	n := len(body)
	if n == 0 {
		return fmt.Errorf("static: empty function body")
	}
	if err := b.match.Match(body); err != nil {
		return fmt.Errorf("static: %w", err)
	}

	// Blocks are the maximal runs that start at instruction 0 or after a
	// block-terminating instruction.
	g := &b.g
	g.Blocks = g.Blocks[:0]
	g.blockAt = resize(g.blockAt, n)
	for i := range body {
		if i == 0 || endsBlock(body[i-1].Op) {
			g.Blocks = append(g.Blocks, Block{Start: i})
		}
		last := len(g.Blocks) - 1
		g.Blocks[last].End = i
		g.blockAt[i] = int32(last)
	}

	// Edge pass: scan linearly, maintaining the frame stack so branch labels
	// resolve like the instrumenter's. Each block's edges leave from its
	// last instruction, so the blocks' successor runs are appended in block
	// order.
	g.succOff = append(g.succOff[:0], 0)
	g.succ = g.succ[:0]
	b.ctrl = append(b.ctrl[:0], frame{kind: frFunc, begin: -1, end: n - 1})
	for i, in := range body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			kind := frBlock
			if in.Op == wasm.OpLoop {
				kind = frLoop
			}
			b.ctrl = append(b.ctrl, frame{kind: kind, begin: i, end: int(b.match.End[i])})
		case wasm.OpEnd:
			b.ctrl = b.ctrl[:len(b.ctrl)-1]
		}

		if !endsBlock(in.Op) && i != n-1 {
			continue // mid-block instruction
		}
		// The match made the last instruction the function-level end and
		// matched every other opener to an end before it, so no successor
		// below lies past the body.
		switch in.Op {
		case wasm.OpLoop:
			b.addEdge(g.blockAt[i+1]) // fallthrough into the loop body
		case wasm.OpIf:
			// True edge: the then arm. False edge: the else arm when present,
			// otherwise past the matching end.
			b.addEdge(g.blockAt[i+1])
			if elsePC := b.match.Else[i]; elsePC >= 0 {
				b.addEdge(g.blockAt[elsePC+1])
			} else {
				b.addEdge(g.blockAt[b.match.End[i]+1])
			}
		case wasm.OpElse:
			// Reached by then-arm fallthrough: jump past the if's end.
			b.addEdge(g.blockAt[b.match.End[i]+1])
		case wasm.OpEnd:
			if i != n-1 { // the final end is the implicit return
				b.addEdge(g.blockAt[i+1])
			}
		case wasm.OpBr:
			if err := b.resolve(in.Idx); err != nil {
				return fmt.Errorf("static: instr %d: %w", i, err)
			}
		case wasm.OpBrIf:
			if err := b.resolve(in.Idx); err != nil {
				return fmt.Errorf("static: instr %d: %w", i, err)
			}
			b.addEdge(g.blockAt[i+1])
		case wasm.OpBrTable:
			off, cnt := in.BrTableSpan()
			if off+cnt > len(f.BrTargets) {
				return fmt.Errorf("static: instr %d: br_table target span [%d:%d] exceeds pool (%d)", i, off, off+cnt, len(f.BrTargets))
			}
			for _, label := range in.BrTargets(f.BrTargets) {
				if err := b.resolve(label); err != nil {
					return fmt.Errorf("static: instr %d: %w", i, err)
				}
			}
			if err := b.resolve(in.Idx); err != nil { // default target
				return fmt.Errorf("static: instr %d: %w", i, err)
			}
		case wasm.OpReturn, wasm.OpUnreachable:
			// Leave the function or trap: no successors.
		}
		g.succOff = append(g.succOff, int32(len(g.succ)))
	}
	b.markReachable()
	return nil
}

// markReachable marks the blocks reachable from the entry block.
func (b *builder) markReachable() {
	g := &b.g
	g.Reachable = resize(g.Reachable, len(g.Blocks))
	clear(g.Reachable)
	g.Reachable[0] = true
	work := append(b.work[:0], 0)
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Succs(int(blk)) {
			if !g.Reachable[s] {
				g.Reachable[s] = true
				work = append(work, s)
			}
		}
	}
	b.work = work
}

// buildFunc builds the graph of the module's defined function di into b.g,
// failing with an error that names the function in the whole index space.
func (b *builder) buildFunc(m *wasm.Module, numImports, di int) error {
	f := &m.Funcs[di]
	if int(f.TypeIdx) >= len(m.Types) {
		return fmt.Errorf("static: func %d: type index %d out of range", numImports+di, f.TypeIdx)
	}
	if err := b.build(f); err != nil {
		return fmt.Errorf("static: func %d: %w", numImports+di, err)
	}
	return nil
}
