// Package lp implements a dense two-phase primal simplex solver for small
// linear programs, used to decide core non-emptiness of cost-sharing games
// (Lemma 3.3 of the paper): the core of a cost function C over agents N is
// the feasible region of
//
//	Σ_{i∈N} f_i = C(N),  Σ_{i∈R} f_i ≤ C(R) ∀ R ⊂ N,  f ≥ 0,
//
// which for |N| ≤ ~12 agents is a small dense LP.
//
// The solver minimizes c·x subject to Ax {≤,=,≥} b with x ≥ 0, using a
// tableau with Bland's anti-cycling rule. It is written for correctness on
// small instances, not for scale.
package lp

import (
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

// Status is the outcome of Solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("lp.Status(%d)", int(s))
}

type constraint struct {
	coeffs []float64
	op     Op
	rhs    float64
}

// Problem is an LP in the form: minimize Obj·x subject to the added
// constraints, with x ≥ 0 componentwise.
type Problem struct {
	nvars int
	obj   []float64
	cons  []constraint
}

// NewProblem returns a problem on n nonnegative variables with a zero
// objective (a pure feasibility problem until SetObjective is called).
func NewProblem(n int) *Problem {
	return &Problem{nvars: n, obj: make([]float64, n)}
}

// SetObjective sets the minimization objective coefficients.
func (p *Problem) SetObjective(c []float64) {
	if len(c) != p.nvars {
		panic(fmt.Sprintf("lp: objective length %d != %d", len(c), p.nvars))
	}
	copy(p.obj, c)
}

// AddConstraint appends the constraint coeffs·x op rhs. The coefficient
// slice is copied.
func (p *Problem) AddConstraint(coeffs []float64, op Op, rhs float64) {
	if len(coeffs) != p.nvars {
		panic(fmt.Sprintf("lp: constraint length %d != %d", len(coeffs), p.nvars))
	}
	p.cons = append(p.cons, constraint{coeffs: append([]float64(nil), coeffs...), op: op, rhs: rhs})
}

// Result holds the solution of an LP.
type Result struct {
	Status Status
	X      []float64 // primal solution (valid when Status == Optimal)
	Obj    float64   // objective value (valid when Status == Optimal)
}

const eps = 1e-9

// Workspace holds the scratch buffers one Solve call needs — the
// normalized rows, the tableau, the basis, and the phase cost rows. A
// caller solving many problems of similar shape (the core-membership
// trials: one LP per cell, 2^k−1 rows each) passes one Workspace to
// SolveWith and pays the tableau allocation once instead of per solve.
// A Workspace is not safe for concurrent use; pool one per worker.
//
// The buffers are pure scratch: SolveWith overwrites every cell it
// reads, so reuse cannot change a result — the pivot arithmetic is
// identical to a fresh allocation's, byte for byte.
type Workspace struct {
	rowCoeffs []float64
	tabData   []float64
	tab       [][]float64
	basis     []int
	phase1    []float64
	objRow    []float64
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow returns a length-n float64 slice backed by *buf, extending the
// backing array when needed. The slice is zeroed.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Solve runs the two-phase simplex and returns the result.
func (p *Problem) Solve() Result { return p.SolveWith(nil) }

// SolveWith is Solve drawing its scratch space from ws; a nil ws
// allocates fresh buffers (exactly Solve's historical behavior). The
// returned Result never aliases the workspace.
func (p *Problem) SolveWith(ws *Workspace) Result {
	if ws == nil {
		ws = NewWorkspace()
	}
	m := len(p.cons)
	// Count auxiliary columns: one slack per LE, one surplus per GE; one
	// artificial per GE and EQ row plus per LE row with negative rhs
	// (normalized below to keep b ≥ 0).
	type rowInfo struct {
		coeffs []float64
		rhs    float64
		op     Op
	}
	rows := make([]rowInfo, m)
	coeffBacking := grow(&ws.rowCoeffs, m*p.nvars)
	for i, c := range p.cons {
		rc := coeffBacking[i*p.nvars : (i+1)*p.nvars : (i+1)*p.nvars]
		copy(rc, c.coeffs)
		r := rowInfo{coeffs: rc, rhs: c.rhs, op: c.op}
		if r.rhs < 0 { // normalize to b ≥ 0
			for j := range r.coeffs {
				r.coeffs[j] = -r.coeffs[j]
			}
			r.rhs = -r.rhs
			switch r.op {
			case LE:
				r.op = GE
			case GE:
				r.op = LE
			}
		}
		rows[i] = r
	}
	nSlack := 0
	nArt := 0
	for _, r := range rows {
		switch r.op {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	total := p.nvars + nSlack + nArt
	// Tableau: m rows × (total+1) cols; last col = rhs.
	width := total + 1
	tabData := grow(&ws.tabData, m*width)
	if cap(ws.tab) < m {
		ws.tab = make([][]float64, m)
	}
	tab := ws.tab[:m]
	if cap(ws.basis) < m {
		ws.basis = make([]int, m)
	}
	basis := ws.basis[:m]
	slackAt := p.nvars
	artAt := p.nvars + nSlack
	for i, r := range rows {
		row := tabData[i*width : (i+1)*width : (i+1)*width]
		copy(row, r.coeffs)
		row[total] = r.rhs
		switch r.op {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		}
		tab[i] = row
	}

	// Phase I: minimize sum of artificials.
	if nArt > 0 {
		phase1 := grow(&ws.phase1, total)
		for j := p.nvars + nSlack; j < total; j++ {
			phase1[j] = 1
		}
		st, _ := simplex(tab, basis, phase1, total)
		if st == Unbounded {
			// Cannot happen for phase I (objective bounded below by 0),
			// but guard anyway.
			return Result{Status: Infeasible}
		}
		// Feasible iff artificial sum is ~0.
		var artSum float64
		for i, b := range basis {
			if b >= p.nvars+nSlack {
				artSum += tab[i][total]
			}
		}
		if artSum > 1e-7 {
			return Result{Status: Infeasible}
		}
		// Pivot remaining artificials out of the basis where possible.
		for i, b := range basis {
			if b < p.nvars+nSlack {
				continue
			}
			pivoted := false
			for j := 0; j < p.nvars+nSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; harmless to leave (rhs ≈ 0).
				_ = i
			}
		}
	}

	// Phase II: minimize the real objective over x and auxiliary columns
	// (zero cost on slacks, effectively +inf on artificials by forbidding
	// them as entering columns).
	objRow := grow(&ws.objRow, total)
	copy(objRow, p.obj)
	st, _ := simplexForbidding(tab, basis, objRow, total, p.nvars+nSlack)
	if st == Unbounded {
		return Result{Status: Unbounded}
	}
	x := make([]float64, p.nvars)
	for i, b := range basis {
		if b < p.nvars {
			x[b] = tab[i][total]
		}
	}
	var obj float64
	for j, c := range p.obj {
		obj += c * x[j]
	}
	return Result{Status: Optimal, X: x, Obj: obj}
}

// simplex minimizes cost over the tableau with Bland's rule. Returns the
// status and objective value.
func simplex(tab [][]float64, basis []int, cost []float64, total int) (Status, float64) {
	return simplexForbidding(tab, basis, cost, total, total)
}

// simplexForbidding is simplex but never lets a column ≥ forbidFrom enter
// the basis (used in phase II to exclude artificials).
func simplexForbidding(tab [][]float64, basis []int, cost []float64, total, forbidFrom int) (Status, float64) {
	m := len(tab)
	for iter := 0; iter < 20000; iter++ {
		// Reduced costs: r_j = c_j − c_B · B⁻¹A_j. Tableau is kept in
		// canonical form, so compute via the basis cost row.
		entering := -1
		for j := 0; j < total && j < forbidFrom; j++ {
			rc := cost[j]
			for i := 0; i < m; i++ {
				rc -= cost[basis[i]] * tab[i][j]
			}
			if rc < -eps { // Bland: first improving column
				entering = j
				break
			}
		}
		if entering < 0 {
			var obj float64
			for i := 0; i < m; i++ {
				obj += cost[basis[i]] * tab[i][total]
			}
			return Optimal, obj
		}
		// Ratio test with Bland tie-break on smallest basis index.
		leaving := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][entering]
			if a > eps {
				ratio := tab[i][total] / a
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && (leaving < 0 || basis[i] < basis[leaving])) {
					bestRatio = ratio
					leaving = i
				}
			}
		}
		if leaving < 0 {
			return Unbounded, 0
		}
		pivot(tab, basis, leaving, entering)
	}
	// Iteration cap: treat as optimal-so-far; with Bland's rule this
	// should be unreachable on the sizes we solve.
	var obj float64
	for i := 0; i < m; i++ {
		obj += cost[basis[i]] * tab[i][total]
	}
	return Optimal, obj
}

func pivot(tab [][]float64, basis []int, row, col int) {
	m := len(tab)
	width := len(tab[row])
	pv := tab[row][col]
	for j := 0; j < width; j++ {
		tab[row][j] /= pv
	}
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			tab[i][j] -= f * tab[row][j]
		}
	}
	basis[row] = col
}

// Feasible is a convenience wrapper: it reports whether the problem has
// any feasible point (ignoring the objective).
func (p *Problem) Feasible() bool {
	q := NewProblem(p.nvars)
	q.cons = p.cons
	return q.Solve().Status == Optimal
}
