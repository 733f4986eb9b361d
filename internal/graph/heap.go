package graph

// IndexHeap is an indexed d-ary (d = 4) min-heap over keys 0..n−1 with
// float64 priorities, supporting DecreaseKey. It backs the
// edge-weighted Dijkstras and Prim. The wider node halves the sift
// depth.
//
// The comparison order (priority, then key) is total, so the pop
// sequence — and with it every byte of downstream output — is identical
// to the binary heap's: the minimum is unique regardless of the
// internal arity.
//
// The zero value is not usable; construct with NewIndexHeap.
type IndexHeap struct {
	prio []float64 // prio[key]
	pos  []int     // pos[key] = index in heap, −1 if absent
	heap []int     // heap of keys
}

// NewIndexHeap returns an empty heap able to hold keys 0..n−1.
func NewIndexHeap(n int) *IndexHeap {
	h := &IndexHeap{
		prio: make([]float64, n),
		pos:  make([]int, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of keys currently in the heap.
func (h *IndexHeap) Len() int { return len(h.heap) }

// Contains reports whether key k is in the heap.
func (h *IndexHeap) Contains(k int) bool { return h.pos[k] >= 0 }

// Priority returns the current priority of key k; only meaningful if k is
// or was in the heap.
func (h *IndexHeap) Priority(k int) float64 { return h.prio[k] }

// Push inserts key k with priority p. It panics if k is already present.
func (h *IndexHeap) Push(k int, p float64) {
	if h.pos[k] >= 0 {
		panic("graph: IndexHeap.Push of present key")
	}
	h.prio[k] = p
	h.pos[k] = len(h.heap)
	h.heap = append(h.heap, k)
	h.up(len(h.heap) - 1)
}

// DecreaseKey lowers the priority of present key k to p. Calls with
// p ≥ current priority are ignored, which lets Dijkstra relax
// unconditionally.
func (h *IndexHeap) DecreaseKey(k int, p float64) {
	if h.pos[k] < 0 || p >= h.prio[k] {
		return
	}
	h.prio[k] = p
	h.up(h.pos[k])
}

// PushOrDecrease inserts k if absent, otherwise lowers its priority.
func (h *IndexHeap) PushOrDecrease(k int, p float64) {
	if h.pos[k] < 0 {
		h.Push(k, p)
	} else {
		h.DecreaseKey(k, p)
	}
}

// Pop removes and returns the key with minimum priority and that priority.
// It panics on an empty heap.
func (h *IndexHeap) Pop() (int, float64) {
	if len(h.heap) == 0 {
		panic("graph: IndexHeap.Pop on empty heap")
	}
	k := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[k] = -1
	if last > 0 {
		h.down(0)
	}
	return k, h.prio[k]
}

func (h *IndexHeap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	if h.prio[a] != h.prio[b] {
		return h.prio[a] < h.prio[b]
	}
	return a < b // deterministic tie-break
}

func (h *IndexHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

// arity is the heap width; 4 is the usual sweet spot for Dijkstra
// workloads (shallower sifts, still cache-friendly child scans).
const arity = 4

func (h *IndexHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / arity
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *IndexHeap) down(i int) {
	n := len(h.heap)
	for {
		first := arity*i + 1
		if first >= n {
			return
		}
		m := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, m) {
				m = c
			}
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}
