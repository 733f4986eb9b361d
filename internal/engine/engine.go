// Package engine is the concurrent batch-evaluation substrate of the
// experiment harness (DESIGN.md §5). It runs independent tasks — trials,
// table cells, whole experiments — on a bounded worker pool while keeping
// every result bit-for-bit identical to a serial run:
//
//   - results are collected order-stably: Map(p, n, fn)[i] is always the
//     value of fn(i), no matter which worker computed it or when;
//   - randomness is derived per task: RNG(base, task) yields a generator
//     that depends only on (base, task), never on scheduling order, so a
//     task's stream is the same at 1 worker and at N;
//   - concurrency is bounded globally, not per call: a Pool carries
//     workers−1 helper tokens shared by every Map scheduled on it, so
//     even nested Maps (RunAll over experiments over cells) never exceed
//     the pool width in running goroutines. Callers always execute tasks
//     themselves and recruit helpers only when a token is free — no
//     blocking acquisition, hence no nesting deadlocks — and a worker
//     re-checks for freed tokens before each task, so a long-running
//     inner Map picks up capacity as sibling work drains.
//
// The contract callers must keep: fn(i) may not mutate state shared with
// fn(j). Tasks that need "the same instance" rebuild it from the same
// derived seed instead of sharing a *rand.Rand.
package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds how many tasks run concurrently across every Map scheduled
// on it. A nil Pool is valid and means serial execution.
type Pool struct {
	workers int
	// tokens holds workers−1 helper slots; owning a token is the right
	// to run one goroutine beyond the calling one.
	tokens chan struct{}
}

// New returns a pool of the given width; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tokens = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			p.tokens <- struct{}{}
		}
	}
	return p
}

// Workers returns the pool width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Map evaluates fn(0..n-1) under the pool and returns the results in
// index order. With a serial pool the calls happen inline on the calling
// goroutine, in order. Otherwise the caller works through the tasks
// itself and, before each one, recruits a helper goroutine if a pool
// token is free; helpers do the same and return their token when the
// queue drains. Either way out[i] == fn(i), which is what makes parallel
// experiment tables byte-identical to serial ones.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if p.Workers() <= 1 || p == nil || p.tokens == nil || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var work func()
	work = func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if i+1 < n {
				// Tasks remain: recruit a helper if capacity is free
				// right now (never block — the caller makes progress
				// regardless, which is what rules out deadlock under
				// nesting).
				select {
				case <-p.tokens:
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { p.tokens <- struct{}{} }()
						work()
					}()
				default:
				}
			}
			out[i] = fn(i)
		}
	}
	work()
	wg.Wait()
	return out
}

// SeedFor derives a 63-bit seed for the given task from a base seed by a
// splitmix64 step. Distinct tasks get well-separated seeds even for
// adjacent indices, and the derivation is pure: it depends only on the
// arguments, never on execution order.
func SeedFor(base int64, task int) int64 {
	z := uint64(base) + (uint64(task)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// RNG returns a task-private generator seeded with SeedFor(base, task).
// Each task must use its own RNG: *rand.Rand is not safe for concurrent
// use, and sharing one would also make the stream depend on scheduling.
func RNG(base int64, task int) *rand.Rand {
	return rand.New(rand.NewSource(SeedFor(base, task)))
}
