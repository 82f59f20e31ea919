package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetMatchesGOMAXPROCS(t *testing.T) {
	if got, want := Budget(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Budget() = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestTryAcquireBoundsTokens(t *testing.T) {
	n := Budget()
	acquired := 0
	for i := 0; i < n+3; i++ {
		if TryAcquire() {
			acquired++
		}
	}
	if acquired != n {
		t.Errorf("acquired %d tokens, want exactly the budget %d", acquired, n)
	}
	// Over-budget attempts must fail, not block.
	if TryAcquire() {
		t.Error("TryAcquire succeeded beyond the budget")
	}
	for i := 0; i < acquired; i++ {
		Release()
	}
	if !TryAcquire() {
		t.Error("TryAcquire failed after all tokens were released")
	}
	Release()
}

func TestConcurrentAcquireRelease(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if TryAcquire() {
					Release()
				}
			}
		}()
	}
	wg.Wait()
	// Every claimed token must have been returned.
	n := Budget()
	got := 0
	for TryAcquire() {
		got++
	}
	for i := 0; i < got; i++ {
		Release()
	}
	if got != n {
		t.Errorf("after churn, %d tokens available, want %d", got, n)
	}
}

// TestClaimEachItemOnce checks Claim's contract: every item is handed out
// exactly once (none with no worker), worker indices stay below the worker
// bound, and every token is returned.
func TestClaimEachItemOnce(t *testing.T) {
	for _, tc := range []struct{ workers, items int }{
		{1, 10}, {2, 100}, {4, 3}, {8, 1000}, {3, 0}, {0, 5},
	} {
		seen := make([]atomic.Int32, tc.items)
		Claim(tc.workers, tc.items, func(w, i int) bool {
			if w < 0 || w >= tc.workers {
				t.Errorf("workers=%d: worker index %d", tc.workers, w)
			}
			seen[i].Add(1)
			return true
		})
		want := int32(1)
		if tc.workers == 0 {
			want = 0
		}
		for i := range seen {
			if n := seen[i].Load(); n != want {
				t.Fatalf("workers=%d items=%d: item %d handed out %d times, want %d", tc.workers, tc.items, i, n, want)
			}
		}
	}
	if got := len(tokens); got != 0 {
		t.Fatalf("%d tokens still held after Claim returned", got)
	}
}

// TestClaimStopsWorker checks that a false return stops the worker that made
// it: with one worker, nothing after the stopping item is handed out.
func TestClaimStopsWorker(t *testing.T) {
	var ran []int
	Claim(1, 10, func(_, i int) bool {
		ran = append(ran, i)
		return i < 3
	})
	if len(ran) != 4 || ran[3] != 3 {
		t.Fatalf("ran %v, want items 0-3 only", ran)
	}
}
