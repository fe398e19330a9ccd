package static

import (
	"fmt"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/parallel"
	"wasabi/internal/wasm"
)

// FuncAnalysis bundles the per-function results.
type FuncAnalysis struct {
	CFG   *CFG
	Facts *FuncFacts
}

// ModuleAnalysis is the full static profile of a module: one CFG + dataflow
// result per defined function, and the module-level call graph.
type ModuleAnalysis struct {
	Mod   *wasm.Module
	Graph *CallGraph
	Funcs []FuncAnalysis // indexed by DEFINED function index

	ix *wasm.Index // Mod's index spaces
}

// Analyze runs the whole static-analysis pipeline over a decoded module. It
// assumes a structurally decodable module but not a validated one: malformed
// bodies fail with positioned errors, never panics. The per-function CFG and
// dataflow passes run on GOMAXPROCS workers; the error reported is the
// lowest-index failing function's, as in a sequential pass.
func Analyze(m *wasm.Module) (*ModuleAnalysis, error) { return analyze(m, 0) }

// analyze is Analyze with the per-function passes on par workers (0 means
// GOMAXPROCS).
func analyze(m *wasm.Module, par int) (*ModuleAnalysis, error) {
	ix := wasm.NewIndex(m)
	cg, err := BuildCallGraph(ix)
	if err != nil {
		return nil, err
	}
	ma := &ModuleAnalysis{Mod: m, Graph: cg, Funcs: make([]FuncAnalysis, len(m.Funcs)), ix: ix}
	numImports := ix.NumImportedFuncs()
	err = parallel.Each(len(m.Funcs), par, func(di int) error {
		f := &m.Funcs[di]
		if int(f.TypeIdx) >= len(m.Types) {
			return fmt.Errorf("static: func %d: type index %d out of range", numImports+di, f.TypeIdx)
		}
		g, err := FuncCFG(f)
		if err != nil {
			return fmt.Errorf("static: func %d: %w", numImports+di, err)
		}
		facts, err := FuncDataflow(ix, m.Types[f.TypeIdx], f, g)
		if err != nil {
			return fmt.Errorf("static: func %d: %w", numImports+di, err)
		}
		ma.Funcs[di] = FuncAnalysis{CFG: g, Facts: facts}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ma, nil
}

// Plan derives the instrumentation plan: functions unreachable from
// exports/start are skipped outright, and when hooks selects
// analysis.KindBlockProbe every CFG-reachable basic block of the remaining
// functions gets one probe.
func (ma *ModuleAnalysis) Plan(hooks analysis.HookSet) *core.Plan {
	numImports := ma.ix.NumImportedFuncs()
	p := &core.Plan{SkipFunc: make([]bool, len(ma.Funcs))}
	for di := range ma.Funcs {
		p.SkipFunc[di] = !ma.Graph.Reachable[numImports+di]
	}
	if hooks.Has(analysis.KindBlockProbe) {
		p.Blocks = make([][]core.BlockSpan, len(ma.Funcs))
		for di := range ma.Funcs {
			if p.SkipFunc[di] {
				continue
			}
			g := ma.Funcs[di].CFG
			spans := make([]core.BlockSpan, 0, len(g.Blocks))
			for b := range g.Blocks {
				if g.Reachable[b] {
					spans = append(spans, g.Blocks[b].Span())
				}
			}
			p.Blocks[di] = spans
		}
	}
	return p
}

// PlanFor is the one-call path the engine uses: analyze m and derive the
// elision plan for the given hook set.
func PlanFor(m *wasm.Module, hooks analysis.HookSet) (*core.Plan, error) {
	ma, err := Analyze(m)
	if err != nil {
		return nil, err
	}
	return ma.Plan(hooks), nil
}

// FuncProfile is one function's row in the module profile.
type FuncProfile struct {
	Idx       int    `json:"idx"`
	Name      string `json:"name,omitempty"`
	Dead      bool   `json:"dead,omitempty"`
	Blocks    int    `json:"blocks"`
	Reachable int    `json:"reachable_blocks"`
	MaxStack  int    `json:"max_stack"`
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
			MaxStack:  fa.Facts.MaxStack,
		})
		for _, fan := range ma.Graph.IndirectSites[idx] {
			p.IndirectSites = append(p.IndirectSites, IndirectSite{Func: idx, FanOut: fan})
		}
	}
	return p
}
