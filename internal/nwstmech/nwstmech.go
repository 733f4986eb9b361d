// Package nwstmech implements the §2.2.2 strategyproof cost-sharing
// mechanism for the non-cooperative node-weighted Steiner tree problem:
// repeatedly pick the minimum-ratio spider; if every covered terminal can
// pay the ratio, charge it and shrink; otherwise drop the agents that
// cannot afford their slice and restart from scratch. One such pass is
// Attempt: RunDetailed loops over it, and the wireless mechanism
// (internal/wmech) calls it from its own restart loop. Super-terminal
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
	// memo, when non-nil, replays recorded spider trajectories for
	// terminal sets seen before (nwst.TrajectoryMemo): the greedy's
	// spider sequence depends only on the terminal set, never on the
	// profile, so replays are byte-identical to fresh computation.
	memo *nwst.TrajectoryMemo
}

// eps absorbs floating-point noise in budget comparisons.
const eps = 1e-9

// New builds the mechanism for an NWST instance. Paying terminals are the
// agents; free terminals (the wireless source) are always connected and
// never charged. The mechanism draws contraction states from a private
// pool, so Run is safe for concurrent use, and keeps no memo.
func New(inst nwst.Instance, oracle nwst.Oracle) *Mechanism {
	inst.Validate()
	if oracle == nil {
		oracle = nwst.BranchSpiderOracle
	}
	m := &Mechanism{inst: inst, oracle: oracle, pool: nwst.NewStatePool(inst)}
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

// NewMemoized is New with a trajectory memo: it records the spider
// sequence per terminal set and replays it on later attempts with the
// same set instead of re-invoking the oracle. The memo lives as long as
// the mechanism. The wireless mechanism builds one per reduction, so
// deviation probes and repeat queries against it replay.
func NewMemoized(inst nwst.Instance, oracle nwst.Oracle) *Mechanism {
	m := New(inst, oracle)
	m.memo = nwst.NewTrajectoryMemo()
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
	active := slices.Clone(m.agents)
	for {
		res, drop, ok := m.Attempt(u, active)
		if ok {
			return res
		}
		left := len(active)
		active = slices.DeleteFunc(active, func(a int) bool {
			_, found := slices.BinarySearch(drop, a)
			return found
		})
		// Nobody dropped is a dead end (the terminals cannot be
		// connected): the same attempt would fail again.
		if len(active) == left || len(active) == 0 {
			return Result{Outcome: mech.Outcome{Shares: map[int]float64{}}}
		}
	}
}

// Attempt runs one full pass of the greedy with the agents in active, a
// sorted subset of Agents(), as the paying terminals. It returns
// ok=false with the sorted agents to drop when some spider is
// unaffordable, and ok=false with none when the terminals cannot be
// connected. A pass depends only on active and on the reports of its
// members, so a caller that drops agents for reasons of its own (the
// wireless mechanism's step (c)) restarts with Attempt on the survivors.
func (m *Mechanism) Attempt(u mech.Profile, active []int) (Result, []int, bool) {
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
	// perturbing a single byte.
	var memoKey string
	var steps []nwst.TrajectoryStep
	if m.memo != nil {
		memoKey = nwst.TrajectoryKey(terms, free)
		steps = m.memo.Lookup(memoKey)
	}

	// Flat per-run scratch off the pooled state: shares and chosen are
	// indexed by original vertex id, vt (Eq. 5) by contracted vertex id.
	ws := st.Workspace()
	ws.Reset(st.N0())
	shares, vt, chosen := ws.Shares, ws.VT, ws.Chosen
	for _, t := range terms {
		chosen[t] = true
	}
	// value returns the utility bound of a live covered terminal.
	value := func(t int) float64 {
		if st.IsFree(t) {
			return math.Inf(1)
		}
		if t < st.N0() {
			return u[t]
		}
		return vt[t]
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
			if st.IsFree(t) {
				continue
			}
			if value(t) >= sp.Ratio-eps {
				continue
			}
			// Terminal t cannot pay; mark the constituents below the
			// per-member threshold ratio/|N⁺_t| for removal.
			cons := st.Constituents(t)
			if t < st.N0() {
				cons = []int{t}
			}
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
			if t < st.N0() {
				shares[t] = sp.Ratio
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
			var resid float64
			if t < st.N0() {
				resid = u[t] - shares[t]
			} else {
				resid = vt[t] - sumShares(t)
			}
			if resid < minResid {
				minResid = resid
			}
		}
		if paying == 0 {
			return math.Inf(1)
		}
		return float64(paying) * minResid
	}

	for stepIdx := 0; ; stepIdx++ {
		live := st.LiveTerminals()
		if len(live) <= 1 {
			break
		}
		expect := nwst.StepSpider
		if len(live) == 2 {
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
			if len(live) == 2 {
				path, cost := st.PathBetween(live[0], live[1])
				if math.IsInf(cost, 1) {
					m.publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepFail})
					return Result{}, nil, false // disconnected: give up
				}
				sp = spiderFromPath(st, path)
				m.publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepPath, Spider: sp})
			} else {
				minCover := len(st.PayingTerminals())
				if minCover > 3 {
					minCover = 3
				}
				var ok bool
				sp, ok = m.oracle(st, minCover)
				if !ok {
					m.publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepFail})
					return Result{}, nil, false
				}
				m.publish(memoKey, stepIdx, nwst.TrajectoryStep{Kind: nwst.StepSpider, Spider: sp})
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
		if len(live) == 2 {
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

// publish records one trajectory step when memoization is on.
func (m *Mechanism) publish(key string, idx int, step nwst.TrajectoryStep) {
	if m.memo != nil {
		m.memo.Publish(key, idx, step)
	}
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
