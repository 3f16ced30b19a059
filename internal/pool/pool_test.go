package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCoversRangeExactlyOnce checks that every index in [0, n) is
// visited by exactly one span for a spread of (n, shards) combinations,
// including shards > n and shards > pool size.
func TestRunCoversRangeExactlyOnce(t *testing.T) {
	p := New(3)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 65, 1000} {
		for _, shards := range []int{0, 1, 2, 4, 7, 100} {
			var mu sync.Mutex
			seen := make([]int, n)
			p.Run(shards, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d shards=%d: bad span [%d,%d)", n, shards, lo, hi)
					return
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d shards=%d: index %d visited %d times", n, shards, i, c)
				}
			}
		}
	}
}

// TestRunSpanCountBounded checks that Run never creates more spans than
// requested (or than n).
func TestRunSpanCountBounded(t *testing.T) {
	p := New(4)
	for _, tc := range []struct{ shards, n, maxSpans int }{
		{2, 100, 2}, {7, 100, 7}, {7, 3, 3}, {0, 100, 4}, {1, 100, 1},
	} {
		var spans atomic.Int64
		p.Run(tc.shards, tc.n, func(lo, hi int) { spans.Add(1) })
		if got := int(spans.Load()); got > tc.maxSpans {
			t.Errorf("shards=%d n=%d: %d spans, want <= %d", tc.shards, tc.n, got, tc.maxSpans)
		}
	}
}

// TestRunBalancedPartition checks spans differ in length by at most one
// and are deterministic functions of (n, shards).
func TestRunBalancedPartition(t *testing.T) {
	p := New(2)
	n, shards := 103, 7
	collect := func() [][2]int {
		var mu sync.Mutex
		var spans [][2]int
		p.Run(shards, n, func(lo, hi int) {
			mu.Lock()
			spans = append(spans, [2]int{lo, hi})
			mu.Unlock()
		})
		return spans
	}
	spans := collect()
	minLen, maxLen := n, 0
	for _, s := range spans {
		if l := s[1] - s[0]; l < minLen {
			minLen = l
		} else if l > maxLen {
			maxLen = l
		}
	}
	if maxLen-minLen > 1 {
		t.Errorf("unbalanced spans: min %d max %d", minLen, maxLen)
	}
	// Same (n, shards) must produce the same span set on every call.
	again := collect()
	key := func(spans [][2]int) map[[2]int]bool {
		m := map[[2]int]bool{}
		for _, s := range spans {
			m[s] = true
		}
		return m
	}
	a, b := key(spans), key(again)
	if len(a) != len(b) {
		t.Fatalf("span count changed between runs: %d vs %d", len(a), len(b))
	}
	for s := range a {
		if !b[s] {
			t.Fatalf("span %v missing on second run", s)
		}
	}
}

// TestNestedRunDoesNotDeadlock saturates a tiny pool with Runs that
// themselves Run, the shape parallel LSQR solves over parallel mat-vec
// operators produce.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.Run(4, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Run(4, 16, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested runs covered %d indices, want %d", got, 8*16)
	}
}

// TestSharedPool sanity-checks the process-wide pool and Do.
func TestSharedPool(t *testing.T) {
	if Shared().Size() < 1 {
		t.Fatalf("shared pool size %d", Shared().Size())
	}
	var sum atomic.Int64
	Do(7, 100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if got := sum.Load(); got != 99*100/2 {
		t.Fatalf("Do sum = %d, want %d", got, 99*100/2)
	}
}

// TestRunManyConcurrentCallers hammers one pool from many goroutines to
// give the race detector something to chew on.
func TestRunManyConcurrentCallers(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, 257)
			for rep := 0; rep < 20; rep++ {
				p.Run(0, len(out), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i]++
					}
				})
			}
			for i, c := range out {
				if c != 20 {
					t.Errorf("index %d incremented %d times, want 20", i, c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// upperArea is the area of rows [lo, hi) of an n-row upper triangle,
// where row i holds n−i entries.
func upperArea(n, lo, hi int) int {
	a := 0
	for i := lo; i < hi; i++ {
		a += n - i
	}
	return a
}

// TestUpperSpansTileAndBalance checks the equal-area split behind DoUpper:
// the spans tile [0, n) in order, no span's area exceeds the ideal share
// by a full row or more, and the bounds depend only on (n, shards).
func TestUpperSpansTileAndBalance(t *testing.T) {
	for n := 1; n <= 200; n++ {
		for shards := 1; shards <= n && shards <= 16; shards++ {
			total := n * (n + 1) / 2
			prev := spanStart(n, shards, 0, true)
			if prev != 0 {
				t.Fatalf("n=%d shards=%d: first span starts at %d", n, shards, prev)
			}
			for s := 1; s <= shards; s++ {
				b := spanStart(n, shards, s, true)
				if b < prev {
					t.Fatalf("n=%d shards=%d: span %d starts at %d, before %d", n, shards, s, b, prev)
				}
				if got := spanStart(n, shards, s, true); got != b {
					t.Fatalf("n=%d shards=%d: span %d bound %d then %d", n, shards, s, b, got)
				}
				// area·shards < total + shards·(one row): strictly less
				// than the ideal share plus the widest row.
				if area := upperArea(n, prev, b); area*shards >= total+n*shards {
					t.Fatalf("n=%d shards=%d: span %d area %d, ideal %d/%d", n, shards, s-1, area, total, shards)
				}
				prev = b
			}
			if prev != n {
				t.Fatalf("n=%d shards=%d: spans end at %d", n, shards, prev)
			}
			if last := spanStart(n, shards, shards-1, true); last >= n {
				t.Fatalf("n=%d shards=%d: last span is empty", n, shards)
			}
		}
	}
}

// TestDoUpperCoversRangeOnce runs the equal-area split through the pool:
// every row is visited exactly once for n = 0, n < shards and shards
// beyond GOMAXPROCS, and the span set repeats from call to call.
func TestDoUpperCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 65, 785} {
		for _, shards := range []int{0, 1, 2, 4, 7, 3 * runtime.GOMAXPROCS(0), 100} {
			collect := func() map[[2]int]bool {
				var mu sync.Mutex
				spans := map[[2]int]bool{}
				seen := make([]int, n)
				DoUpper(shards, n, func(lo, hi int) {
					mu.Lock()
					defer mu.Unlock()
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d shards=%d: bad span [%d,%d)", n, shards, lo, hi)
						return
					}
					spans[[2]int{lo, hi}] = true
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d shards=%d: row %d visited %d times", n, shards, i, c)
					}
				}
				return spans
			}
			a, b := collect(), collect()
			if len(a) != len(b) {
				t.Fatalf("n=%d shards=%d: %d spans, then %d", n, shards, len(a), len(b))
			}
			for s := range a {
				if !b[s] {
					t.Fatalf("n=%d shards=%d: span %v missing on second call", n, shards, s)
				}
			}
		}
	}
}

// TestSpanStartAllocatesNothing: the split is pure arithmetic.
func TestSpanStartAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s <= 7; s++ {
			_ = spanStart(785, 7, s, true)
		}
	})
	if allocs > 0 {
		t.Fatalf("spanStart allocated %v times per run", allocs)
	}
}
