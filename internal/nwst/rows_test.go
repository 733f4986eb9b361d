package nwst

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"wmcs/internal/engine"
)

// TestStatePoolRowTable pins the life of a pool's table of uncontracted
// rows: it is empty after NewStatePool and after Get; the first oracle
// call on a state that has contracted nothing fills it, for either
// oracle; it holds exactly the rows of an exhaustive sweep; two
// states of one pool read the same backing arrays; and after a Shrink a
// state reads rows of its own.
func TestStatePoolRowTable(t *testing.T) {
	in := withFreeSource(randomInstance(rand.New(rand.NewSource(53)), 18, 6))
	n := in.G.N()
	for _, o := range []struct {
		name   string
		oracle Oracle
	}{{"kr", KleinRaviOracle}, {"branch", BranchSpiderOracle}} {
		pool := NewStatePool(in)
		if pool.rows.dists != nil || pool.rows.parents != nil {
			t.Fatalf("%s: table filled by NewStatePool", o.name)
		}
		a := pool.Get(in.Terminals, in.Free)
		b := pool.Get(in.Terminals[:3], in.Free[:3])
		if pool.rows.dists != nil || pool.rows.parents != nil {
			t.Fatalf("%s: table filled by Get", o.name)
		}
		sp, ok := o.oracle(a, 3)
		if !ok {
			t.Fatalf("%s: no spider", o.name)
		}
		if len(pool.rows.dists) != n || len(pool.rows.parents) != n {
			t.Fatalf("%s: table not filled by the first step-0 call (%d, %d rows)", o.name, len(pool.rows.dists), len(pool.rows.parents))
		}
		fresh := NewState(in)
		dist, parent := make([]float64, n), make([]int32, n)
		for v := 0; v < n; v++ {
			fresh.dijkstra(&fresh.sc, v, dist, parent, -1)
			if !reflect.DeepEqual(pool.rows.dists[v], dist) || !reflect.DeepEqual(pool.rows.parents[v], parent) {
				t.Fatalf("%s: table row %d is not the exhaustive sweep", o.name, v)
			}
		}
		o.oracle(b, 2)
		for _, st := range []*State{a, b} {
			if !st.fromHost || &st.dists[0][0] != &pool.rows.dists[0][0] || &st.parents[0][0] != &pool.rows.parents[0][0] {
				t.Fatalf("%s: a pooled state at step 0 does not read the pool's table", o.name)
			}
		}
		a.Shrink(sp)
		BranchSpiderOracle(a, 1)
		if a.fromHost {
			t.Fatalf("%s: a state still reads the table after a Shrink", o.name)
		}
		for v, row := range a.dists {
			if !a.alive[v] {
				continue
			}
			for u := 0; u < n; u++ {
				if &row[0] == &pool.rows.dists[u][0] || &a.parents[v][0] == &pool.rows.parents[u][0] {
					t.Fatalf("%s: after a Shrink, row %d aliases table row %d", o.name, v, u)
				}
			}
		}
	}
}

// TestStatePoolConcurrentFill races eight queries on one fresh pool:
// each draws its own state, on its own terminal set, and runs a
// contraction run on the branch oracle at width 2, so the first step-0
// calls meet at the table's fill. Every spider must equal the naive
// reference's. Under -race this also checks that the fill publishes the
// table before any state reads it and that nothing writes it after.
func TestStatePoolConcurrentFill(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	in := withFreeSource(randomInstance(rng, 20, 6))
	const queries = 8
	sets := make([]Instance, queries)
	want := make([][]Spider, queries)
	for i := range sets {
		terms := dedup(append([]int{in.Terminals[0]}, rng.Perm(in.G.N())[:3+i%4]...))
		sets[i] = withFreeSource(Instance{G: in.G, Weights: in.Weights, Terminals: terms})
		want[i] = runGreedy(t, NewState(sets[i]), naiveBranchSpider)
	}
	pool := NewStatePool(in)
	got := make([][]Spider, queries)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := pool.Get(sets[i].Terminals, sets[i].Free)
			defer pool.Put(st)
			<-start
			got[i] = runGreedy(t, st, BranchSpiderOracleOn(engine.New(2)))
		}()
	}
	close(start)
	wg.Wait()
	for i := range sets {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d: concurrent pooled run diverged from the naive reference\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestStateRowReuse pins when a branch call off the pool's table reuses
// the state's own rows: exactly when the state's contraction sequence
// equals the one they were last swept for, and then every live own row
// is the row an exhaustive sweep makes on a fresh state contracted the
// same way. A pooled and an unpooled state each run attempts cut after
// one to three oracle calls, as the mechanism's restarts are, on a
// terminal set that repeats and that loses a terminal, so the sequence
// both repeats and changes. (An unpooled state sweeps its own rows at
// the empty sequence too, so only attempts cut after one call let it
// reuse them.)
func TestStateRowReuse(t *testing.T) {
	in := withFreeSource(randomInstance(rand.New(rand.NewSource(61)), 16, 7))
	less := withoutTerminal(in, in.Terminals[len(in.Terminals)-1])
	attempts := []struct {
		set   Instance
		calls int
	}{{in, 2}, {in, 2}, {in, 3}, {less, 2}, {less, 2}, {in, 1}, {in, 1}, {in, 2}, {in, 3}}
	for _, pooled := range []bool{false, true} {
		pool := NewStatePool(in)
		var st *State
		hits, misses := 0, 0
		for a, at := range attempts {
			switch {
			case pooled:
				st = pool.Get(at.set.Terminals, at.set.Free)
			case st == nil:
				st = NewState(at.set)
			default:
				st.Reset(at.set.Terminals, at.set.Free)
			}
			fresh := NewState(at.set)
			for call := 0; call < at.calls && len(st.LiveTerminals()) > 2; call++ {
				swept, sweptFor := st.ownSwept, slices.Clone(st.ownSeq)
				sp, ok := BranchSpiderOracle(st, min(3, len(st.PayingTerminals())))
				if !ok {
					t.Fatalf("pooled %v attempt %d call %d: no spider", pooled, a, call)
				}
				if !st.fromHost {
					want := swept && slices.Equal(st.seq, sweptFor)
					if st.reused != want {
						t.Fatalf("pooled %v attempt %d call %d: reused = %v with sequence %v, rows swept for %v (swept %v)",
							pooled, a, call, st.reused, st.seq, sweptFor, swept)
					}
					if want {
						hits++
					} else {
						misses++
					}
					if !slices.Equal(st.ownSeq, st.seq) {
						t.Fatalf("pooled %v attempt %d call %d: rows recorded as swept for %v, sequence %v", pooled, a, call, st.ownSeq, st.seq)
					}
					dist, parent := make([]float64, st.g.N()), make([]int32, st.g.N())
					for v := 0; v < st.g.N(); v++ {
						if !st.alive[v] {
							continue
						}
						fresh.dijkstra(&fresh.sc, v, dist, parent, -1)
						if !sameBits(st.ownDists[v], dist) || !slices.Equal(st.ownParents[v], parent) {
							t.Fatalf("pooled %v attempt %d call %d: own row %d is not the fresh state's exhaustive row", pooled, a, call, v)
						}
					}
				}
				st.Shrink(sp)
				fresh.Shrink(sp)
			}
			if pooled {
				pool.Put(st)
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("pooled %v: %d reusing and %d sweeping calls, want both", pooled, hits, misses)
		}
	}
}
