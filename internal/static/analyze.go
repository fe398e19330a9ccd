package static

import (
	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/parallel"
	"wasabi/internal/wasm"
)

// FuncAnalysis bundles the per-function results.
type FuncAnalysis struct {
	CFG *CFG
}

// ModuleAnalysis is the full static profile of a module: one CFG per
// defined function and the module-level call graph.
type ModuleAnalysis struct {
	Graph *CallGraph
	Funcs []FuncAnalysis // indexed by DEFINED function index

	ix *wasm.Index // the module's index spaces
}

// Analyze computes a module's call graph with reachability and every
// defined function's CFG with block reachability, and nothing else. It
// assumes a structurally decodable module but not a validated one, and it
// checks structure only, exactly like PlanFor: it fails on the same modules
// with the same errors, positioned and never panics. The CFGs are built on
// GOMAXPROCS workers; the error reported is the lowest-index failing
// function's, as in a sequential pass.
func Analyze(m *wasm.Module) (*ModuleAnalysis, error) { return analyze(m, 0) }

// analyze is Analyze with the CFGs built on par workers (0 means
// GOMAXPROCS).
func analyze(m *wasm.Module, par int) (*ModuleAnalysis, error) {
	ix := wasm.NewIndex(m)
	cg, err := BuildCallGraph(ix)
	if err != nil {
		return nil, err
	}
	ma := &ModuleAnalysis{Graph: cg, Funcs: make([]FuncAnalysis, len(m.Funcs)), ix: ix}
	numImports := ix.NumImportedFuncs()
	err = parallel.Each(len(m.Funcs), par, func(di int) error {
		var b builder // one per function, so that the graph owns its memory
		if err := b.buildFunc(m, numImports, di); err != nil {
			return err
		}
		g := b.g
		ma.Funcs[di] = FuncAnalysis{CFG: &g}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ma, nil
}

// newPlan returns a plan that skips every function the call graph cannot
// reach and, when hooks selects analysis.KindBlockProbe, has room for the
// probe spans of each function.
func newPlan(cg *CallGraph, numImports, numDefined int, hooks analysis.HookSet) *core.Plan {
	p := &core.Plan{SkipFunc: make([]bool, numDefined)}
	for di := range p.SkipFunc {
		p.SkipFunc[di] = !cg.Reachable[numImports+di]
	}
	if hooks.Has(analysis.KindBlockProbe) {
		p.Blocks = make([][]core.BlockSpan, numDefined)
	}
	return p
}

// Plan derives the instrumentation plan: functions unreachable from
// exports/start are skipped outright, and when hooks selects
// analysis.KindBlockProbe every CFG-reachable basic block of the remaining
// functions gets one probe.
func (ma *ModuleAnalysis) Plan(hooks analysis.HookSet) *core.Plan {
	p := newPlan(ma.Graph, ma.ix.NumImportedFuncs(), len(ma.Funcs), hooks)
	if p.Blocks != nil {
		for di := range ma.Funcs {
			if !p.SkipFunc[di] {
				p.Blocks[di] = ma.Funcs[di].CFG.spans()
			}
		}
	}
	return p
}

// PlanFor is the path the engine uses: it computes the plan
// Analyze(m).Plan(hooks) would, and fails where Analyze does, but keeps
// only what the plan holds. The CFGs are built on GOMAXPROCS workers, each
// reusing one builder's buffers from function to function; the error
// reported is the lowest-index failing function's.
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
	p := newPlan(cg, numImports, len(m.Funcs), hooks)
	// Every CFG is built, even where no span is read, so that the plan
	// fails on exactly the bodies Analyze's CFG builder rejects.
	err = parallel.For(len(m.Funcs), par, func() *builder { return new(builder) }, nil,
		func(b *builder, di int) error {
			if err := b.buildFunc(m, numImports, di); err != nil {
				return err
			}
			if p.Blocks != nil && !p.SkipFunc[di] {
				p.Blocks[di] = b.g.spans()
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// FuncProfile is one function's row in the module profile.
type FuncProfile struct {
	Idx       int    `json:"idx"`
	Name      string `json:"name,omitempty"`
	Dead      bool   `json:"dead,omitempty"`
	Blocks    int    `json:"blocks"`
	Reachable int    `json:"reachable_blocks"`
}

// IndirectSite is one call_indirect instruction's static fan-out.
type IndirectSite struct {
	Func   int `json:"func"`
	FanOut int `json:"fan_out"`
}

// Profile is the module's static profile, the data behind `wasabi -inspect`.
type Profile struct {
	NumFuncs      int            `json:"num_funcs"`
	NumImports    int            `json:"num_imports"`
	DeadFuncs     []uint32       `json:"dead_funcs"`
	TableFuncs    int            `json:"table_funcs"`
	Funcs         []FuncProfile  `json:"funcs"`
	IndirectSites []IndirectSite `json:"indirect_sites,omitempty"`
}

// Profile assembles the report-surface view of the analysis.
func (ma *ModuleAnalysis) Profile() *Profile {
	numImports := ma.ix.NumImportedFuncs()
	p := &Profile{
		NumFuncs:   ma.ix.NumFuncs(),
		NumImports: numImports,
		DeadFuncs:  ma.Graph.DeadFuncs(),
		TableFuncs: len(ma.Graph.TableFuncs),
	}
	for di := range ma.Funcs {
		idx := numImports + di
		fa := &ma.Funcs[di]
		p.Funcs = append(p.Funcs, FuncProfile{
			Idx:       idx,
			Name:      ma.ix.FuncName(uint32(idx)),
			Dead:      !ma.Graph.Reachable[idx],
			Blocks:    len(fa.CFG.Blocks),
			Reachable: fa.CFG.NumReachable(),
		})
		for _, fan := range ma.Graph.IndirectSites[idx] {
			p.IndirectSites = append(p.IndirectSites, IndirectSite{Func: idx, FanOut: fan})
		}
	}
	return p
}
