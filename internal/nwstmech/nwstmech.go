// Package nwstmech implements the §2.2.2 strategyproof cost-sharing
// mechanism for the non-cooperative node-weighted Steiner tree problem:
// repeatedly pick the minimum-ratio spider; if every covered terminal can
// pay the ratio, charge it and shrink; otherwise drop the agents that
// cannot afford their slice and restart from scratch. DropLoop owns that
// restart loop, the paper's "while R′ ≠ R(v)", for both mechanisms that
// run it: RunDetailed accepts every pass whose spiders were affordable,
// and the wireless mechanism (internal/wmech) finishes each such pass
// with its step (c) surcharges, a second reason to drop. Super-terminal
// utilities follow Eq. (5): v_t = |T_Sp| · min_{t'∈T_Sp}(v_{t'} − c_{t'}).
//
// Faithfulness note: the published drop rule compares residual budgets to
// v_t/|N⁺_t|, which would make never-charged terminals undroppable and
// contradicts the paper's own Fig. 1 walkthrough; we use the threshold
// ratio(Sp)/|N⁺_t| that makes the walkthrough come out exactly (see
// DESIGN.md §3.2). The mechanism is β(k)-BB for whatever ratio guarantee
// the configured spider oracle provides (Theorem 2.2's argument is
// oracle-agnostic). It is deliberately *not* group strategyproof, which
// experiment E4 demonstrates by replaying Fig. 1.
//
// Reproduction finding F3 (see EXPERIMENTS.md): Theorem 2.3's
// strategyproofness claim has a gap. When a failing spider covers several
// simultaneously-unaffordable terminals, they drop together, and the
// restarted run can build a structurally cheaper solution; an agent can
// over-report, outlive a competitor's drop, and pay a share below its
// true utility. TestMultiDropSPCounterexample pins a concrete instance;
// the proof step "c_i(v) ≤ u_i by VP" only bounds shares by the
// *reported* utility. Single-agent deviations are still unprofitable on
// the overwhelming majority of sampled instances (experiments E5/E6).
package nwstmech

import (
	"math"
	"slices"
	"sort"

	"wmcs/internal/mech"
	"wmcs/internal/nwst"
)

// Mechanism is the §2.2.2 NWST cost-sharing mechanism.
type Mechanism struct {
	inst   nwst.Instance
	oracle nwst.Oracle
	agents []int
	// freeTerms lists the free terminals in instance order; every
	// attempt's terminal list starts with them.
	freeTerms []int
	pool      *nwst.StatePool
	// memo replays recorded spider trajectories for terminal sets seen
	// before (nwst.TrajectoryMemo): the greedy's spider sequence depends
	// only on the terminal set, never on the profile, so replays are
	// byte-identical to fresh computation. It lives as long as the
	// mechanism, so deviation probes and repeat queries against it
	// replay.
	memo *nwst.TrajectoryMemo
}

// eps absorbs floating-point noise in budget comparisons.
const eps = 1e-9

// New builds the mechanism for an NWST instance. Paying terminals are the
// agents; free terminals (the wireless source) are always connected and
// never charged. The mechanism draws contraction states from a private
// pool and records trajectories in a private memo, both safe for
// concurrent use, so Run is too.
func New(inst nwst.Instance, oracle nwst.Oracle) *Mechanism {
	inst.Validate()
	if oracle == nil {
		oracle = nwst.BranchSpiderOracle
	}
	m := &Mechanism{inst: inst, oracle: oracle, pool: nwst.NewStatePool(inst), memo: nwst.NewTrajectoryMemo()}
	for ti, t := range inst.Terminals {
		if inst.Free != nil && inst.Free[ti] {
			m.freeTerms = append(m.freeTerms, t)
		} else {
			m.agents = append(m.agents, t)
		}
	}
	sort.Ints(m.agents)
	return m
}

// Name implements mech.Mechanism.
func (m *Mechanism) Name() string { return "nwst-spider" }

// Agents implements mech.Mechanism: the paying terminal node ids.
func (m *Mechanism) Agents() []int { return append([]int(nil), m.agents...) }

// Result bundles the mechanism outcome with the chosen host-graph nodes,
// which the wireless mechanism needs to realize the multicast tree.
type Result struct {
	Outcome mech.Outcome
	Nodes   []int // selected host nodes (terminals included), sorted
}

// Run implements mech.Mechanism.
func (m *Mechanism) Run(u mech.Profile) mech.Outcome { return m.RunDetailed(u).Outcome }

// RunDetailed executes the mechanism and also reports the chosen nodes.
func (m *Mechanism) RunDetailed(u mech.Profile) Result {
	if res, ok := m.DropLoop(u, func(Result) []int { return nil }); ok {
		return res
	}
	return Result{Outcome: mech.Outcome{Shares: map[int]float64{}}}
}

// DropLoop runs the "while R′ ≠ R(v)" loop, starting with every agent
// active. Each pass runs the greedy with the active agents as the paying
// terminals. If some spider is unaffordable, the agents below their
// slice drop; otherwise finish sees the pass's result and returns the
// sorted agents it drops, none to accept it. Whoever drops leaves the
// active set and the loop repeats on the survivors. A pass depends only
// on the active set and on its members' reports, so a pass that drops
// nobody (the terminals cannot be connected) would repeat forever: it is
// a dead end, as is an empty active set, and DropLoop then reports
// false.
func (m *Mechanism) DropLoop(u mech.Profile, finish func(Result) []int) (Result, bool) {
	active := slices.Clone(m.agents)
	for {
		res, drop, ok := m.attempt(u, active)
		if ok {
			if drop = finish(res); len(drop) == 0 {
				return res, true
			}
		}
		left := len(active)
		active = slices.DeleteFunc(active, func(a int) bool {
			_, found := slices.BinarySearch(drop, a)
			return found
		})
		if len(active) == left || len(active) == 0 {
			return Result{}, false
		}
	}
}

// attempt runs one full pass of the greedy with the agents in active, a
// sorted subset of Agents(), as the paying terminals. It returns
// ok=false with the sorted agents to drop when some spider is
// unaffordable, and ok=false with none when the terminals cannot be
// connected.
func (m *Mechanism) attempt(u mech.Profile, active []int) (Result, []int, bool) {
	terms := slices.Concat(m.freeTerms, active)
	free := make([]bool, len(terms))
	for i := range m.freeTerms {
		free[i] = true
	}
	st := m.pool.Get(terms, free)
	defer m.pool.Put(st)

	// Recorded trajectory for this terminal set, if any: the steps are
	// exactly what a fresh run would compute (profile-independence, see
	// nwst.TrajectoryMemo), so replaying them skips the oracle without
	// perturbing a single byte. The key is encoded into the pooled
	// state's scratch, so an attempt that replays allocates no key.
	ws := st.Workspace()
	ws.Key = nwst.AppendTrajectoryKey(ws.Key[:0], terms, free)
	memoKey := ws.Key
	steps := m.memo.Lookup(memoKey)

	// Flat per-run scratch off the pooled state: shares and chosen are
	// indexed by original vertex id, vt (Eq. 5) by vertex id. An original
	// paying terminal's utility is its report, and its constituents are
	// itself, with no share until the spider that covers it, so one
	// residual rule, vt minus the constituents' shares, prices original
	// and contracted terminals alike.
	ws.Reset(st.N0())
	shares, vt, chosen := ws.Shares, ws.VT, ws.Chosen
	for _, t := range terms {
		chosen[t] = true
	}
	for _, t := range active {
		vt[t] = u[t]
	}
	sumShares := func(t int) float64 {
		var s float64
		for _, x := range st.Constituents(t) {
			s += shares[x]
		}
		return s
	}
	accept := func(sp nwst.Spider) ([]int, bool) {
		var drop []int
		for _, t := range sp.Terms {
			if st.IsFree(t) || vt[t] >= sp.Ratio-eps {
				continue
			}
			// Terminal t cannot pay; mark the constituents below the
			// per-member threshold ratio/|N⁺_t| for removal.
			cons := st.Constituents(t)
			thr := sp.Ratio / float64(len(cons))
			worst, worstResid := -1, math.Inf(1)
			for _, x := range cons {
				resid := u[x] - shares[x]
				if resid < thr-eps {
					drop = append(drop, x)
				}
				if resid < worstResid {
					worst, worstResid = x, resid
				}
			}
			if len(drop) == 0 && worst >= 0 {
				drop = append(drop, worst) // numerical-tie fallback
			}
		}
		if len(drop) > 0 {
			sort.Ints(drop)
			return drop, false
		}
		return nil, true
	}
	charge := func(sp nwst.Spider) {
		for _, t := range sp.Terms {
			if st.IsFree(t) {
				continue
			}
			cons := st.Constituents(t)
			slice := sp.Ratio / float64(len(cons))
			for _, x := range cons {
				shares[x] += slice
			}
		}
	}
	record := func(nodes []int) {
		for _, v := range nodes {
			if v < st.N0() {
				chosen[v] = true
			}
		}
	}
	newVT := func(sp nwst.Spider) float64 {
		minResid := math.Inf(1)
		paying := 0
		for _, t := range sp.Terms {
			if st.IsFree(t) {
				continue
			}
			paying++
			if resid := vt[t] - sumShares(t); resid < minResid {
				minResid = resid
			}
		}
		if paying == 0 {
			return math.Inf(1)
		}
		return float64(paying) * minResid
	}

	for stepIdx := 0; ; stepIdx++ {
		live, paying, first := st.TerminalCounts()
		if live <= 1 {
			break
		}
		expect := nwst.StepSpider
		if live == 2 {
			expect = nwst.StepPath
		}
		var sp nwst.Spider
		replayed := false
		if stepIdx < len(steps) {
			stp := steps[stepIdx]
			if stp.Kind == nwst.StepFail {
				return Result{}, nil, false // recorded dead end
			}
			if stp.Kind == expect {
				sp = stp.Spider
				replayed = true
			}
		}
		if !replayed {
			if live == 2 {
				path, cost := st.PathBetween(first[0], first[1])
				if math.IsInf(cost, 1) {
					m.memo.Publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepFail})
					return Result{}, nil, false // disconnected: give up
				}
				sp = spiderFromPath(st, path)
				m.memo.Publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepPath, Spider: sp})
			} else {
				var ok bool
				sp, ok = m.oracle(st, min(paying, 3))
				if !ok {
					m.memo.Publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepFail})
					return Result{}, nil, false
				}
				m.memo.Publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepSpider, Spider: sp})
			}
		}
		drop, ok := accept(sp)
		if !ok {
			return Result{}, drop, false
		}
		charge(sp)
		record(sp.Nodes)
		// The residuals in Eq. (5) use the post-charge shares, but vt of
		// covered super-terminals must be read before Shrink retires them.
		newUtility := newVT(sp)
		nv := st.Shrink(sp)
		ws.Grow(nv + 1)
		shares, vt, chosen = ws.Shares, ws.VT, ws.Chosen
		vt[nv] = newUtility
		if live == 2 {
			break
		}
	}
	var nodes []int
	for v := 0; v < st.N0(); v++ {
		if chosen[v] {
			nodes = append(nodes, v)
		}
	}
	// Sum in node order: map order would perturb the float low bits.
	var cost float64
	for _, v := range nodes {
		cost += m.inst.Weights[v]
	}
	receivers := append(make([]int, 0, len(active)), active...)
	sharesOut := make(map[int]float64, len(receivers))
	for _, r := range receivers {
		sharesOut[r] = shares[r]
	}
	return Result{
		Outcome: mech.Outcome{Receivers: receivers, Shares: sharesOut, Cost: cost},
		Nodes:   nodes,
	}, nil, true
}

// spiderFromPath builds the final "connect the last two terminals
// optimally" step as a degenerate spider so the accept/charge logic is
// shared.
func spiderFromPath(st *nwst.State, path []int) nwst.Spider {
	var cost float64
	var terms []int
	paying := 0
	for _, v := range path {
		cost += st.Weight(v)
		if st.IsTerminal(v) {
			terms = append(terms, v)
			if !st.IsFree(v) {
				paying++
			}
		}
	}
	sort.Ints(terms)
	ratio := math.Inf(1)
	if paying > 0 {
		ratio = cost / float64(paying)
	}
	nodes := append([]int(nil), path...)
	sort.Ints(nodes)
	return nwst.Spider{
		Center: path[0],
		Nodes:  nodes,
		Terms:  terms,
		Paying: paying,
		Cost:   cost,
		Ratio:  ratio,
	}
}
