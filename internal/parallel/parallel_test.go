package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wasabi/internal/leakcheck"
)

// TestForRunsEveryIndexOnce checks coverage and the per-worker state
// contract at widths below, at and above n: each index runs exactly once,
// there are min(par, n) states, and every state is released.
func TestForRunsEveryIndexOnce(t *testing.T) {
	leakcheck.Check(t)
	const n = 1000
	for _, par := range []int{1, 2, 3, 8, n + 5} {
		var (
			mu       sync.Mutex
			acquired int
			released []*[]int
			seen     [n]atomic.Int32
		)
		acquire := func() *[]int {
			mu.Lock()
			acquired++
			mu.Unlock()
			return new([]int)
		}
		release := func(w *[]int) {
			mu.Lock()
			released = append(released, w)
			mu.Unlock()
		}
		err := For(n, par, acquire, release, func(w *[]int, i int) error {
			seen[i].Add(1)
			*w = append(*w, i)
			return nil
		})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("par %d: index %d ran %d times", par, i, c)
			}
		}
		if want := poolSize(n, par); acquired != want || len(released) != want {
			t.Fatalf("par %d: %d states acquired, %d released, want %d", par, acquired, len(released), want)
		}
		// Each worker sees its indices in increasing order.
		for _, w := range released {
			for j := 1; j < len(*w); j++ {
				if (*w)[j] <= (*w)[j-1] {
					t.Fatalf("par %d: a worker ran %d after %d", par, (*w)[j], (*w)[j-1])
				}
			}
		}
	}
}

// TestForInline checks that one worker runs on the calling goroutine, in
// index order, and that n == 0 runs nothing but still pairs acquire with
// release.
func TestForInline(t *testing.T) {
	var order []int // unsynchronized: the race detector flags any goroutine
	if err := Each(5, 1, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("inline order %v", order)
	}
	acquired, released := 0, 0
	err := For(0, 4, func() int { acquired++; return 0 }, func(int) { released++ },
		func(int, int) error { t.Fatal("ran an index of an empty loop"); return nil })
	if err != nil || acquired != 1 || released != 1 {
		t.Fatalf("empty loop: err %v, %d acquired, %d released", err, acquired, released)
	}
}

// TestForLowestError checks that the error returned is the lowest failing
// index's at every width, however the failing indices are scheduled.
func TestForLowestError(t *testing.T) {
	leakcheck.Check(t)
	const n = 200
	bad := map[int]bool{37: true, 38: true, 120: true, 199: true}
	for par := 1; par <= 8; par++ {
		for round := 0; round < 20; round++ {
			err := Each(n, par, func(i int) error {
				if i > 37 && i%7 == 0 {
					time.Sleep(time.Microsecond) // let higher indices fail first
				}
				if bad[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 37" {
				t.Fatalf("par %d round %d: got %v, want index 37", par, round, err)
			}
		}
	}
}

// TestForPanicReraised checks that a panic in one fn(i) reaches the caller
// only after every other worker has returned, with its original value, and
// that no goroutine outlives For. A lower-index error wins over a panic, as
// in a sequential loop.
func TestForPanicReraised(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("boom")
	for _, par := range []int{1, 2, 4, 8} {
		var running atomic.Int32
		var slowDone atomic.Bool
		func() {
			defer func() {
				p := recover()
				if p != boom {
					t.Fatalf("par %d: recovered %v, want the worker's panic value", par, p)
				}
				if r := running.Load(); r != 0 {
					t.Fatalf("par %d: panic re-raised with %d calls still running", par, r)
				}
				if par > 1 && !slowDone.Load() {
					t.Fatalf("par %d: panic re-raised before the slow worker finished", par)
				}
			}()
			_ = Each(100, par, func(i int) error {
				running.Add(1)
				defer running.Add(-1)
				switch i {
				case 0:
					if par > 1 {
						time.Sleep(20 * time.Millisecond)
						slowDone.Store(true)
					}
				case 1:
					panic(boom)
				}
				return nil
			})
			t.Fatalf("par %d: For returned instead of panicking", par)
		}()

		err := Each(100, par, func(i int) error {
			switch i {
			case 3:
				return boom
			case 50:
				panic("higher index")
			}
			return nil
		})
		if err != boom {
			t.Fatalf("par %d: got %v, want the lower-index error", par, err)
		}
	}
}
