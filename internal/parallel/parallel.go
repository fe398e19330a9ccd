// Package parallel runs the per-function loops of the instrumentation
// pipeline — decode, validate, static analysis, instrument and encode — on a
// bounded number of goroutines, with the result a sequential loop would
// give: every index runs exactly once, the error returned is the one of the
// lowest failing index, and a panic surfaces on the calling goroutine.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolSize returns how many goroutines For runs n items on at parallelism
// par: min(par, n), where par <= 0 means GOMAXPROCS.
func poolSize(n, par int) int {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return min(par, n)
}

// For calls fn(w, i) for every i in [0, n) on min(par, n) goroutines, where
// par <= 0 means GOMAXPROCS. Each goroutine takes its state w from acquire
// once and, if it finishes without panicking, hands it to release (which
// may be nil); indices are handed out in increasing order, one at a time.
// With one worker the loop runs inline on the calling goroutine.
//
// The first failure stops further indices from being handed out; the ones
// already running finish. For then returns the error of the lowest failing
// index, which is the error a sequential loop returns, since every lower
// index was handed out before it and has run. If the lowest failing index
// panicked instead, For re-raises its panic value on the calling goroutine
// after every worker has returned, so a recover around For (such as a
// net/http handler's) sees it. The re-raised panic carries the caller's
// stack, not the worker's; parallelism 1 reproduces the original stack.
func For[W any](n, par int, acquire func() W, release func(W), fn func(w W, i int) error) error {
	workers := poolSize(n, par)
	if workers <= 1 {
		w := acquire()
		var err error
		for i := 0; i < n && err == nil; i++ {
			err = fn(w, i)
		}
		if release != nil {
			release(w)
		}
		return err
	}

	var next atomic.Int64
	stop := func() { next.Store(int64(n)) }
	fails := make([]failure, workers)
	var wg sync.WaitGroup
	for k := range fails {
		wg.Add(1)
		go func(f *failure) {
			defer wg.Done()
			f.idx = -1 // a panic in acquire precedes every index
			defer func() {
				if p := recover(); p != nil {
					f.panicked, f.value = true, p
					stop()
				}
			}()
			w := acquire()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				f.idx = i
				if err := fn(w, i); err != nil {
					f.err = err
					stop()
					break
				}
			}
			if release != nil {
				release(w)
			}
		}(&fails[k])
	}
	wg.Wait()

	var first *failure
	for k := range fails {
		if f := &fails[k]; f.failed() && (first == nil || f.idx < first.idx) {
			first = f
		}
	}
	switch {
	case first == nil:
		return nil
	case first.panicked:
		panic(first.value)
	default:
		return first.err
	}
}

// Each is For without per-worker state.
func Each(n, par int, fn func(i int) error) error {
	return For(n, par, func() struct{} { return struct{}{} }, nil, func(_ struct{}, i int) error { return fn(i) })
}

// failure is one worker's outcome: the index it stopped at and why.
type failure struct {
	idx      int
	err      error
	panicked bool
	value    any
}

func (f *failure) failed() bool { return f.err != nil || f.panicked }
