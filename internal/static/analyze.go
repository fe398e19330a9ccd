package static

import (
	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/parallel"
	"wasabi/internal/wasm"
)

// eachCFG builds the CFG of every defined function of the indexed module on
// par workers (0 means GOMAXPROCS), each reusing one builder's buffers from
// function to function, and hands it to visit with the function's defined
// index. visit runs concurrently for different functions and must not keep
// g: the worker's next build overwrites it. The error reported is the
// lowest-index failing function's, as in a sequential pass.
func eachCFG(ix *wasm.Index, par int, visit func(di int, g *CFG)) error {
	m, numImports := ix.Module(), ix.NumImportedFuncs()
	return parallel.For(len(m.Funcs), par, func() *builder { return new(builder) }, nil,
		func(b *builder, di int) error {
			if err := b.buildFunc(m, numImports, di); err != nil {
				return err
			}
			visit(di, &b.g)
			return nil
		})
}

// PlanFor derives the instrumentation plan for hooks: functions the call
// graph cannot reach from exports/start are skipped outright, and when
// hooks selects analysis.KindBlockProbe every CFG-reachable basic block of
// the remaining functions gets one probe. It assumes a structurally
// decodable module but not a validated one, and checks structure only: it
// fails on the same modules as Profile, with the same errors, positioned,
// and never panics.
func PlanFor(m *wasm.Module, hooks analysis.HookSet) (*core.Plan, error) {
	return planFor(m, hooks, 0)
}

// planFor is PlanFor with the CFGs built on par workers (0 means
// GOMAXPROCS).
func planFor(m *wasm.Module, hooks analysis.HookSet, par int) (*core.Plan, error) {
	ix := wasm.NewIndex(m)
	cg, err := BuildCallGraph(ix)
	if err != nil {
		return nil, err
	}
	numImports := ix.NumImportedFuncs()
	p := &core.Plan{SkipFunc: make([]bool, len(m.Funcs))}
	for di := range p.SkipFunc {
		p.SkipFunc[di] = !cg.Reachable[numImports+di]
	}
	if hooks.Has(analysis.KindBlockProbe) {
		p.Blocks = make([][]core.BlockSpan, len(m.Funcs))
	}
	// Every CFG is built, even where no span is read, so that the plan
	// fails on exactly the bodies the CFG builder rejects.
	err = eachCFG(ix, par, func(di int, g *CFG) {
		if p.Blocks != nil && !p.SkipFunc[di] {
			p.Blocks[di] = g.spans()
		}
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// FuncProfile is one function's row in the module profile.
type FuncProfile struct {
	Idx       int
	Name      string
	Dead      bool
	Blocks    int
	Reachable int
}

// IndirectSite is one call_indirect instruction's static fan-out.
type IndirectSite struct {
	Func   int
	FanOut int
}

// ModuleProfile is the module's static profile, the data behind
// `wasabi -inspect`.
type ModuleProfile struct {
	NumFuncs      int
	NumImports    int
	DeadFuncs     []uint32
	TableFuncs    int
	Funcs         []FuncProfile // indexed by defined function index
	IndirectSites []IndirectSite
}

// Profile computes m's static profile: its call graph with reachability,
// and each defined function's block counts from a CFG walk like PlanFor's,
// with which it shares every check and error.
func Profile(m *wasm.Module) (*ModuleProfile, error) { return profile(m, 0) }

// profile is Profile with the CFGs built on par workers (0 means
// GOMAXPROCS).
func profile(m *wasm.Module, par int) (*ModuleProfile, error) {
	ix := wasm.NewIndex(m)
	cg, err := BuildCallGraph(ix)
	if err != nil {
		return nil, err
	}
	numImports := ix.NumImportedFuncs()
	p := &ModuleProfile{
		NumFuncs:   ix.NumFuncs(),
		NumImports: numImports,
		DeadFuncs:  cg.DeadFuncs(),
		TableFuncs: len(cg.TableFuncs),
		Funcs:      make([]FuncProfile, len(m.Funcs)),
	}
	err = eachCFG(ix, par, func(di int, g *CFG) {
		idx := numImports + di
		p.Funcs[di] = FuncProfile{
			Idx:       idx,
			Name:      ix.FuncName(uint32(idx)),
			Dead:      !cg.Reachable[idx],
			Blocks:    len(g.Blocks),
			Reachable: g.NumReachable(),
		}
	})
	if err != nil {
		return nil, err
	}
	for idx := numImports; idx < len(cg.IndirectSites); idx++ {
		for _, fan := range cg.IndirectSites[idx] {
			p.IndirectSites = append(p.IndirectSites, IndirectSite{Func: idx, FanOut: fan})
		}
	}
	return p, nil
}
