package nwst

// Workspace is the flat per-run scratch of the §2.2.2 mechanism loop
// (package nwstmech): cost shares and chosen-node flags indexed by
// original vertex id, and Eq. (5) super-terminal utilities indexed by
// contracted vertex id. It replaces the per-attempt maps the mechanism
// historically allocated — a State is already the pooled per-query
// workspace, so hanging the buffers here makes every attempt
// allocation-free without changing who owns mutable state: one
// goroutine per checked-out State.
//
// The three slices are kept at a common length covering every vertex
// id minted so far; Reset shrinks and zeroes them for a fresh run,
// Grow extends them (zero-filled) as Shrink mints super-terminals.
type Workspace struct {
	Shares []float64 // per original-vertex cost shares
	VT     []float64 // Eq. (5) super-terminal utilities, by vertex id
	Chosen []bool    // original vertices selected into the solution
	// Key holds the attempt's trajectory-memo key
	// (AppendTrajectoryKey); Reset and Grow leave it alone.
	Key []byte
}

// Workspace returns the state's mechanism scratch, allocated on first
// use and reused across Reset cycles like every other State buffer.
func (s *State) Workspace() *Workspace {
	if s.ws == nil {
		s.ws = &Workspace{}
	}
	return s.ws
}

// Reset sizes the buffers to n entries, all zero.
func (w *Workspace) Reset(n int) {
	if cap(w.Shares) < n {
		w.Shares = make([]float64, n)
		w.VT = make([]float64, n)
		w.Chosen = make([]bool, n)
		return
	}
	w.Shares = w.Shares[:n]
	w.VT = w.VT[:n]
	w.Chosen = w.Chosen[:n]
	for i := 0; i < n; i++ {
		w.Shares[i] = 0
		w.VT[i] = 0
		w.Chosen[i] = false
	}
}

// Grow extends the buffers to at least n entries, new entries zero.
func (w *Workspace) Grow(n int) {
	for len(w.Shares) < n {
		w.Shares = append(w.Shares, 0)
		w.VT = append(w.VT, 0)
		w.Chosen = append(w.Chosen, false)
	}
}
