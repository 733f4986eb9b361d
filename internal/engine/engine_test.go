package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderStable(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		p := New(workers)
		out := Map(p, 100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNilPool(t *testing.T) {
	if out := Map[int](nil, 0, nil); len(out) != 0 {
		t.Fatalf("empty map returned %v", out)
	}
	out := Map(nil, 3, func(i int) int { return i + 1 })
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("nil-pool map wrong: %v", out)
	}
	if (*Pool)(nil).Workers() != 1 {
		t.Fatal("nil pool must report width 1")
	}
}

func TestSerialRunsInline(t *testing.T) {
	// A width-1 pool must execute on the calling goroutine in index
	// order, so side effects are sequentially consistent without locks.
	var trace []int
	Map(New(1), 5, func(i int) int {
		trace = append(trace, i)
		return i
	})
	for i, v := range trace {
		if v != i {
			t.Fatalf("serial order broken: %v", trace)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	Map(New(workers), 24, func(i int) int {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return i
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestNestedMapsShareOneBound(t *testing.T) {
	// The tokens are pool-global: an outer Map over inner Maps must stay
	// within the same width, not width², and must never deadlock.
	const workers = 4
	p := New(workers)
	var inFlight, peak atomic.Int64
	Map(p, 6, func(outer int) int {
		inner := Map(p, 8, func(i int) int {
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return i
		})
		return inner[outer]
	})
	if pk := peak.Load(); pk > workers {
		t.Fatalf("nested peak concurrency %d exceeds pool width %d", pk, workers)
	}
}

func TestMapOverlapsWork(t *testing.T) {
	// Sleep-bound tasks overlap even on a single CPU; 8 tasks of 20ms
	// under 8 workers must finish far sooner than the 160ms serial sum.
	start := time.Now()
	Map(New(8), 8, func(i int) int {
		time.Sleep(20 * time.Millisecond)
		return i
	})
	if d := time.Since(start); d > 120*time.Millisecond {
		t.Fatalf("8 overlapping 20ms tasks took %v; pool is not concurrent", d)
	}
}

func TestDefaultWidthIsGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want %d", got, want)
	}
	if New(-3).Workers() != runtime.GOMAXPROCS(0) {
		t.Fatal("negative widths must fall back to GOMAXPROCS")
	}
}

func TestSeedForIsPureAndSpread(t *testing.T) {
	seen := map[int64]bool{}
	for task := 0; task < 2000; task++ {
		s := SeedFor(42, task)
		if s < 0 {
			t.Fatalf("SeedFor(42, %d) = %d is negative", task, s)
		}
		if s != SeedFor(42, task) {
			t.Fatalf("SeedFor not deterministic at task %d", task)
		}
		if seen[s] {
			t.Fatalf("seed collision at task %d", task)
		}
		seen[s] = true
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Fatal("different bases must give different seeds")
	}
}

func TestRNGStreamsIndependentOfScheduling(t *testing.T) {
	// The first draw of each task's RNG must match a serial recomputation
	// regardless of worker count.
	want := make([]float64, 50)
	for i := range want {
		want[i] = RNG(7, i).Float64()
	}
	got := Map(New(16), 50, func(i int) float64 { return RNG(7, i).Float64() })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d drew %g under 16 workers, %g serially", i, got[i], want[i])
		}
	}
}
