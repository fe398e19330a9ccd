package interp

import (
	"fmt"
	"sync"

	"wasabi/internal/wasm"
)

// hostCall is how the compile pass lowers a call to one imported function.
// A host shape is one hostCall per imported function, in import order; it is
// the only thing about the resolved imports the threaded code depends on.
type hostCall byte

const (
	hostPlain hostCall = iota // iCallHost: the generic host call
	hostNoOp                  // elided, together with its argument lowering
	hostFast                  // iCallHostFast: the zero-copy stack window
	hostEmit                  // iCallHostEmit: Fast's record-emit twin
)

// hostCallOf reads the call convention of a resolved host function. It is
// the one place that does: the compile pass lowers calls from it and
// CompiledModule keys its code cache on it, so the cache cannot hand out
// code compiled for another convention. NoOp, Emit and Fast are honoured
// only for result-less signatures; NoOp wins over Emit, Emit over Fast.
func hostCallOf(hf *HostFunc) hostCall {
	switch {
	case len(hf.Type.Results) != 0:
		return hostPlain
	case hf.NoOp:
		return hostNoOp
	case hf.Emit != nil:
		return hostEmit
	case hf.Fast != nil:
		return hostFast
	}
	return hostPlain
}

// CompiledModule is a module's compiled form under one Config: the module's
// resolved index spaces and, per host shape it has been instantiated with,
// the threaded code of every defined function. The code holds no host
// pointers and is never mutated after compile, so every instance whose
// imports have the same shape links the same code instead of compiling its
// own — the compile-once, instantiate-many split. Compile errors are not
// cached: a shape that failed compiles again on the next Instantiate. Safe
// for concurrent use; the code lives as long as the CompiledModule or any
// instance linked to it.
type CompiledModule struct {
	m   *wasm.Module
	ix  *wasm.Index
	cfg Config

	mu     sync.Mutex
	shapes map[string]*shapeCode
}

// shapeCode is the compiled code of one host shape, compiled at most once
// however many instantiations ask for it at the same time.
type shapeCode struct {
	once  sync.Once
	funcs []*compiledFunc // indexed by defined function
	err   error
}

// NewCompiledModule prepares m for instantiation under cfg. It compiles
// nothing yet: each host shape compiles at its first Instantiate. The
// module must not be modified afterwards.
func NewCompiledModule(m *wasm.Module, cfg Config) *CompiledModule {
	return &CompiledModule{m: m, ix: wasm.NewIndex(m), cfg: cfg, shapes: map[string]*shapeCode{}}
}

// code returns the compiled functions for shape, compiling them on first
// use. Concurrent callers with one shape share one compile.
func (cm *CompiledModule) code(shape []hostCall) ([]*compiledFunc, error) {
	cm.mu.Lock()
	sc := cm.shapes[string(shape)]
	if sc == nil {
		sc = &shapeCode{}
		cm.shapes[string(shape)] = sc
	}
	cm.mu.Unlock()
	sc.once.Do(func() { sc.funcs, sc.err = cm.compile(shape) })
	if sc.err != nil {
		cm.mu.Lock()
		if cm.shapes[string(shape)] == sc {
			delete(cm.shapes, string(shape))
		}
		cm.mu.Unlock()
		return nil, sc.err
	}
	return sc.funcs, nil
}

// compile lowers every defined function for shape, through one compiler
// whose scratch buffers are reused from function to function.
func (cm *CompiledModule) compile(shape []hostCall) ([]*compiledFunc, error) {
	m := cm.m
	c := &compiler{ix: cm.ix, shape: shape, guarded: cm.cfg.Guarded}
	maxStack := cm.cfg.maxFuncStack()
	funcs := make([]*compiledFunc, len(m.Funcs))
	for i := range m.Funcs {
		f := &m.Funcs[i]
		if int(f.TypeIdx) >= len(m.Types) {
			return nil, fmt.Errorf("interp: function %d type index out of range", i)
		}
		cf, err := c.compileFunc(m.Types[f.TypeIdx], f, maxStack)
		if err != nil {
			return nil, fmt.Errorf("interp: function %d: %w", i, err)
		}
		funcs[i] = cf
	}
	return funcs, nil
}
