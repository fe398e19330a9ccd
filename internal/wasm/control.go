package wasm

import "fmt"

// ControlMatch pairs the structured control instructions of one function
// body: End[i] is the index of the end that closes the block, loop, if or
// else at i, and Else[i] that of the else of the if at i; every other entry
// is -1. Match reuses the slices for the next body, so a caller that keeps
// one ControlMatch matches many bodies without allocating.
type ControlMatch struct {
	End, Else []int32
	open      []int32 // indices of the open block, loop and if instructions
}

// Match fills End and Else for body. It fails on an else without an open if
// (or after the if's else), on a function-level end that is not the last
// instruction, and on a body whose blocks are not all closed by its final
// end. Its errors carry no package prefix; the caller adds its own.
func (cm *ControlMatch) Match(body []Instr) error {
	if n := len(body); cap(cm.End) < n || cap(cm.Else) < n {
		cm.End, cm.Else = make([]int32, n), make([]int32, n)
	}
	cm.End, cm.Else = cm.End[:len(body)], cm.Else[:len(body)]
	for i := range body {
		cm.End[i], cm.Else[i] = -1, -1
	}
	cm.open = cm.open[:0]
	for pc, in := range body {
		switch in.Op {
		case OpBlock, OpLoop, OpIf:
			cm.open = append(cm.open, int32(pc))
		case OpElse:
			n := len(cm.open)
			if n == 0 || body[cm.open[n-1]].Op != OpIf || cm.Else[cm.open[n-1]] >= 0 {
				return fmt.Errorf("else without open if at instr %d", pc)
			}
			cm.Else[cm.open[n-1]] = int32(pc)
		case OpEnd:
			n := len(cm.open)
			if n == 0 {
				if pc != len(body)-1 {
					return fmt.Errorf("function-level end at instr %d is not final", pc)
				}
				return nil
			}
			top := cm.open[n-1]
			cm.open = cm.open[:n-1]
			cm.End[top] = int32(pc)
			if e := cm.Else[top]; e >= 0 {
				cm.End[e] = int32(pc)
			}
		}
	}
	if len(cm.open) != 0 {
		return fmt.Errorf("%d unclosed blocks at end of body", len(cm.open))
	}
	return fmt.Errorf("missing function-level end")
}
