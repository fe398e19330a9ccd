package analyses

import "wasabi/internal/analysis"

// shadow is the shadow state of an analysis that tracks one T per value
// (paper §2.3): a shadow operand stack per active call, with the call's
// locals, and the globals, kept on the host beside the program's own. It
// implements the hooks that only move values — drop, select, local and
// global access, and the conditions if, br_if and br_table consume — and
// the call-frame rules: enter moves a call's arguments into the callee's
// locals, leave returns to the caller. An analysis embeds it and adds the
// hooks that make values.
type shadow[T any] struct {
	frames  []*shadowFrame[T]
	globals map[uint32]T
	unknown T // what a pop of an empty (desynchronized) stack reads, and a callee's ret before it returns
}

// shadowFrame is one active call: its operand stack and locals, what it
// returns and the function called.
type shadowFrame[T any] struct {
	stack  []T
	locals map[uint32]T
	ret    T
	target int
}

// newShadow returns a shadow with the frame of the host's call.
func newShadow[T any](unknown T) shadow[T] {
	return shadow[T]{
		frames:  []*shadowFrame[T]{{locals: make(map[uint32]T)}},
		globals: make(map[uint32]T),
		unknown: unknown,
	}
}

func (s *shadow[T]) top() *shadowFrame[T] { return s.frames[len(s.frames)-1] }

func (s *shadow[T]) push(v T) {
	f := s.top()
	f.stack = append(f.stack, v)
}

func (s *shadow[T]) pop() T {
	f := s.top()
	if len(f.stack) == 0 {
		return s.unknown
	}
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func (s *shadow[T]) Drop(analysis.Location, analysis.Value) { s.pop() }

func (s *shadow[T]) Select(_ analysis.Location, cond bool, _, _ analysis.Value) {
	s.pop() // condition
	second := s.pop()
	first := s.pop()
	if cond {
		s.push(first)
	} else {
		s.push(second)
	}
}

func (s *shadow[T]) Local(_ analysis.Location, op string, idx uint32, _ analysis.Value) {
	f := s.top()
	switch op {
	case "local.get":
		s.push(f.locals[idx])
	case "local.set":
		f.locals[idx] = s.pop()
	case "local.tee":
		if len(f.stack) > 0 {
			f.locals[idx] = f.stack[len(f.stack)-1]
		}
	}
}

func (s *shadow[T]) Global(_ analysis.Location, op string, idx uint32, _ analysis.Value) {
	if op == "global.get" {
		s.push(s.globals[idx])
	} else {
		s.globals[idx] = s.pop()
	}
}

func (s *shadow[T]) If(analysis.Location, bool) { s.pop() }

func (s *shadow[T]) BrIf(analysis.Location, analysis.BranchTarget, bool) { s.pop() }

func (s *shadow[T]) BrTable(analysis.Location, []analysis.BranchTarget, analysis.BranchTarget, uint32) {
	s.pop()
}

// enter pops a call's nargs arguments, and an indirect call's table index,
// and pushes the callee's frame with the arguments as its first locals.
func (s *shadow[T]) enter(target, nargs int, tableIdx int64) *shadowFrame[T] {
	callee := &shadowFrame[T]{locals: make(map[uint32]T), ret: s.unknown, target: target}
	for i := nargs - 1; i >= 0; i-- {
		callee.locals[uint32(i)] = s.pop()
	}
	if tableIdx >= 0 {
		s.pop() // the table index operand
	}
	s.frames = append(s.frames, callee)
	return callee
}

// leave pops the callee's frame, never the host's, and returns it.
func (s *shadow[T]) leave() *shadowFrame[T] {
	callee := s.top()
	if len(s.frames) > 1 {
		s.frames = s.frames[:len(s.frames)-1]
	}
	return callee
}
