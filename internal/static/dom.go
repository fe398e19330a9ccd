package static

// dominators computes immediate dominators of the CFG's reachable blocks
// with the Cooper–Harvey–Kennedy iterative algorithm over a reverse
// postorder. Idom[0] = 0 (the entry dominates itself by convention);
// unreachable blocks get -1.
func dominators(g *CFG) []int32 {
	n := len(g.Blocks)
	idom := make([]int32, n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}
	preds := make([][]int32, n)
	for b := range g.Blocks {
		for _, s := range g.Succs(b) {
			preds[s] = append(preds[s], int32(b))
		}
	}

	// Reverse postorder of the reachable subgraph (iterative DFS).
	post := make([]int32, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type dfsFrame struct {
		b    int32
		next int
	}
	stack := []dfsFrame{{b: 0}}
	state[0] = 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := g.Succs(int(top.b))
		if top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, dfsFrame{b: s})
			}
			continue
		}
		state[top.b] = 2
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int32, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	rpoNum := make([]int32, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b] = int32(i)
	}

	intersect := func(a, b int32) int32 {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIdom := int32(-1)
			for _, p := range preds[b] {
				if rpoNum[p] < 0 || idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b of the function's
// CFG (both must be reachable; every block dominates itself).
func (fa *FuncAnalysis) Dominates(a, b int) bool {
	g := fa.CFG
	if a < 0 || b < 0 || a >= len(g.Blocks) || b >= len(g.Blocks) ||
		!g.Reachable[a] || !g.Reachable[b] {
		return false
	}
	for {
		if b == a {
			return true
		}
		if b == 0 {
			return false
		}
		b = int(fa.Idom[b])
		if b < 0 {
			return false
		}
	}
}
