package par

import (
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryWorker(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		var hit [8]atomic.Int32
		Do(workers, func(w int) { hit[w].Add(1) })
		for w := 0; w < workers; w++ {
			if got := hit[w].Load(); got != 1 {
				t.Fatalf("workers=%d: worker %d ran %d times", workers, w, got)
			}
		}
		for w := workers; w < len(hit); w++ {
			if workers >= 0 && hit[w].Load() != 0 {
				t.Fatalf("workers=%d: worker %d ran but was not requested", workers, w)
			}
		}
	}
}

func TestRangesCoversEveryItemOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			seen := make([]atomic.Int32, max(n, 1))
			Ranges(n, workers, func(w, lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: item %d covered %d times", n, workers, i, got)
				}
			}
		}
	}
}

func TestRangesMatchesEngineSplit(t *testing.T) {
	// The chunking must match the engine's runBank split so per-worker
	// results merged in worker order reproduce sequential item order.
	n, workers := 10, 4
	var got [][2]int
	Ranges(n, workers, func(w, lo, hi int) {})
	// Deterministic re-derivation (single worker to keep order):
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		got = append(got, [2]int{lo, min(lo+chunk, n)})
	}
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk %d = %v, want %v", i, got[i], want[i])
		}
	}
}
