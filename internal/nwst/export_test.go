package nwst

// Hooks for the reduction-graph tests (reduction_test.go). They build
// their instances with memtred, which imports nwst, so they live in the
// external package nwst_test and reach the internal checks through
// these names.

var (
	CheckSweeps  = checkSweeps
	CheckOracles = checkOracles
)

// Described reports whether st sweeps through a chain description.
func Described(st *State) bool { return st.chains != nil }

// BaseDegree returns vertex v's degree in the described graph.
func (c *Chains) BaseDegree(v int) int { return int(c.deg[v]) }

// ImpliedNeighbors returns the neighbour ids of vertex v that the
// description implies, in the order of the adjacency list it was derived
// from: for an input, each station's levels from thr in station order;
// for an output, its station's input and then the inputs it reaches in
// ascending id.
func (c *Chains) ImpliedNeighbors(v int) []int {
	S := c.stations
	var out []int
	if v < S {
		for i := 0; i < S; i++ {
			for x := c.first[i] + c.thr[v*S+i]; x < c.first[i+1]; x++ {
				out = append(out, int(x))
			}
		}
		return out
	}
	i := int(c.station[v-S])
	reach := make([]bool, S)
	for _, j := range c.order[i*S : i*S+int(c.upto[v-S])] {
		reach[j] = true
	}
	out = append(out, i)
	for j := 0; j < S; j++ {
		if reach[j] {
			out = append(out, j)
		}
	}
	return out
}
