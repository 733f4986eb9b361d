package nwst

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wmcs/internal/engine"
)

// TestStatePoolRowTable pins the life of a pool's table of uncontracted
// rows: it is empty after NewStatePool and after Get; the first oracle
// call on a state that has contracted nothing fills it, for either
// oracle; it holds exactly the exhaustive rows NodeDist sweeps; two
// states of one pool read the same backing arrays; and after a Shrink a
// state reads rows of its own.
func TestStatePoolRowTable(t *testing.T) {
	in := withFreeSource(randomInstance(rand.New(rand.NewSource(53)), 18, 6))
	n := in.G.N()
	for _, o := range []struct {
		name   string
		oracle Oracle
	}{{"kr", KleinRaviOracle}, {"branch", BranchSpiderOracle}} {
		pool := NewStatePool(in.G, in.Weights)
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
		for v := 0; v < n; v++ {
			dist, parent := fresh.NodeDist(v)
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
	pool := NewStatePool(in.G, in.Weights)
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
