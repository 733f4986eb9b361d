package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wmcs/internal/obs"
	"wmcs/internal/query"
)

// errInternal marks server-side faults — recovered evaluation panics,
// unencodable outcomes — as distinct from request errors, so the HTTP
// layer can answer 500 instead of blaming the client with a 4xx.
var errInternal = errors.New("internal error")

// batcher is the admission layer between HTTP handlers and the engine
// pool. Handlers submit one canonical query each; a single dispatcher
// goroutine drains whatever has accumulated, groups it by network, and
// runs each group as one EvaluateBatch on the evaluator's engine pool.
// Under load this turns N concurrent distinct queries into a few
// pool-wide batches instead of N independent evaluations; when idle it
// degenerates to batch size 1 with no added latency (the dispatcher
// blocks on the channel, not on a timer).
//
// Tasks carry the NetworkEntry *and* the {evaluator, version} pair they
// were admitted with: an entry evicted or updated mid-flight still
// answers (correctly, for the network state the client was admitted
// against), and its result is cached under that registration's
// generation-and-version prefix — unreachable by any future request, so
// neither a re-registered name nor an updated network can ever serve a
// predecessor's bytes.
// When parallel > 1 the dispatcher additionally runs a round's *groups*
// concurrently on up to that many replica slots (DESIGN.md §14): tasks
// admitted against different network versions no longer serialize
// behind one another's evaluations. Correctness does not depend on the
// schedule — every group evaluates on its own concurrency-safe
// evaluator, each task has a private buffered reply channel, and cache
// Puts for a given key always carry the same bytes — so replica
// dispatch changes wall clock only, never a response byte.
type batcher struct {
	cache   *Cache
	stats   *Stats
	workers int
	maxWait int // max tasks drained into one dispatch round

	// parallel is the replica-slot count (the registry's evaluation
	// width); slots is the semaphore bounding concurrent group dispatch.
	// 1 keeps the serial group loop.
	parallel int
	slots    chan struct{}

	tasks    chan *admitTask
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

type admitTask struct {
	entry *NetworkEntry
	// ev and ver are the consistent pair resolved at admission: the
	// evaluator the task runs on and the network version its cache key
	// encodes. Both come from one atomic Current() load, so a task can
	// never cache bytes computed on one version under another's key.
	ev    *query.Evaluator
	ver   uint64
	canon CanonRequest
	key   string // full cache key (generation/version prefix + canon.Key)
	reply chan taskResult

	// enq and spans are the task's trace bookkeeping. The dispatcher owns
	// spans until it sends the reply; the submitting handler replays them
	// into its own *obs.Trace only after receiving from the reply channel,
	// so the two goroutines never touch a trace concurrently (the channel
	// edge is the happens-before). Fixed-size: the dispatcher records at
	// most queue_wait, evaluate, compute, parallel_evaluate and encode.
	enq    time.Time
	spans  [5]spanRec
	nspans int
}

// spanRec is a dispatcher-side span: absolute start plus duration,
// converted to a trace-relative obs.Span at replay time.
type spanRec struct {
	st    obs.Stage
	start time.Time
	dur   time.Duration
}

// span records one dispatcher-side stage; over-recording is dropped
// (mirrors obs.Trace semantics).
func (t *admitTask) span(st obs.Stage, start time.Time, d time.Duration) {
	if t.nspans < len(t.spans) {
		t.spans[t.nspans] = spanRec{st: st, start: start, dur: d}
		t.nspans++
	}
}

// replay copies the dispatcher-recorded spans into the handler's trace.
// Call only from the goroutine that owns tr, after <-t.reply.
func (t *admitTask) replay(tr *obs.Trace) {
	for _, s := range t.spans[:t.nspans] {
		tr.Record(s.st, s.start, s.dur)
	}
}

type taskResult struct {
	body []byte
	err  error
}

func newBatcher(cache *Cache, stats *Stats, workers, maxBatch, parallel int) *batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	b := &batcher{
		cache:    cache,
		stats:    stats,
		workers:  workers,
		maxWait:  maxBatch,
		parallel: parallel,
		tasks:    make(chan *admitTask, maxBatch),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if parallel > 1 {
		b.slots = make(chan struct{}, parallel)
	}
	go b.loop()
	return b
}

// do evaluates one canonical query through the admission queue and
// blocks for its result. Callers sit behind the singleflight group, so
// at most one task per distinct key is in the queue at a time. tr (nil
// ok) receives the dispatcher-side spans — replayed here, on the
// caller's goroutine, never on the shutdown path where the trace may
// already be released by the time the dispatcher drains the task.
func (b *batcher) do(entry *NetworkEntry, ev *query.Evaluator, ver uint64, c CanonRequest, key string, tr *obs.Trace) ([]byte, error) {
	t := &admitTask{entry: entry, ev: ev, ver: ver, canon: c, key: key,
		reply: make(chan taskResult, 1), enq: time.Now()}
	select {
	case b.tasks <- t:
	case <-b.quit:
		return nil, errShuttingDown
	}
	select {
	case r := <-t.reply:
		t.replay(tr)
		return r.body, r.err
	case <-b.quit:
		// The dispatcher may have exited between our enqueue and its
		// drain; prefer a result if one landed (the reply channel is
		// buffered, so a late dispatcher reply never blocks either way).
		select {
		case r := <-t.reply:
			t.replay(tr)
			return r.body, r.err
		default:
			return nil, errShuttingDown
		}
	}
}

var errShuttingDown = fmt.Errorf("server shutting down")

// close stops the dispatcher after it finishes the round in progress;
// tasks still queued are failed cleanly. Idempotent.
func (b *batcher) close() {
	b.stopOnce.Do(func() { close(b.quit) })
	<-b.done
}

func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.quit:
			b.failQueued()
			return
		case t := <-b.tasks:
			batch := []*admitTask{t}
		drain:
			for len(batch) < b.maxWait {
				select {
				case t2 := <-b.tasks:
					batch = append(batch, t2)
				default:
					break drain
				}
			}
			b.run(batch)
		}
	}
}

func (b *batcher) failQueued() {
	for {
		select {
		case t := <-b.tasks:
			t.reply <- taskResult{err: errShuttingDown}
		default:
			return
		}
	}
}

// run executes one dispatch round: group by the evaluator tasks were
// admitted with (one per live network version), evaluate each group as
// one batch on the engine pool, encode, fill the cache, reply. Grouping
// by evaluator rather than entry matters under churn: tasks admitted on
// either side of an update carry different evaluators and must not
// share a batch.
func (b *batcher) run(batch []*admitTask) {
	b.stats.Batches.Add(1)
	b.stats.BatchedQueries.Add(uint64(len(batch)))
	byEv := make(map[*query.Evaluator][]*admitTask)
	var order []*query.Evaluator
	for _, t := range batch {
		if _, ok := byEv[t.ev]; !ok {
			order = append(order, t.ev)
		}
		byEv[t.ev] = append(byEv[t.ev], t)
	}
	if b.slots != nil && len(order) > 1 {
		// Replica dispatch: every group gets a slot (bounded by the
		// configured width) and runs concurrently. Each group still owns
		// its tasks exclusively and answers on per-task buffered
		// channels, so no reply ordering is imposed across groups.
		b.stats.ReplicaRounds.Add(1)
		b.stats.ReplicaGroups.Add(uint64(len(order)))
		roundStart := time.Now()
		var wg sync.WaitGroup
		for _, ev := range order {
			ev, group := ev, byEv[ev]
			b.slots <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() { <-b.slots; wg.Done() }()
				b.runGroup(ev, group, roundStart)
			}()
		}
		wg.Wait()
		return
	}
	for _, ev := range order {
		b.runGroup(ev, byEv[ev], time.Time{})
	}
}

// runGroup evaluates one network version's share of a dispatch round.
// It runs on the dispatcher goroutine (or a replica-slot goroutine when
// parallel dispatch is enabled), where net/http's per-handler recover
// cannot reach — an uncaught panic here kills the whole daemon — so any
// panic out of evaluation or encoding is converted into an error reply
// for every task still waiting. A non-zero roundStart marks replica
// dispatch and anchors each task's parallel_evaluate span.
func (b *batcher) runGroup(ev *query.Evaluator, group []*admitTask, roundStart time.Time) {
	entry := group[0].entry // one evaluator never spans entries
	replied := 0
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("evaluating %s: %w: %v", entry.Name, errInternal, r)
			for _, t := range group[replied:] {
				t.reply <- taskResult{err: err}
			}
		}
	}()
	// Per-task queue wait ends when this group's evaluation starts; a
	// group later in the round legitimately waits through its
	// predecessors' evaluations.
	groupStart := time.Now()
	for _, t := range group {
		t.span(obs.StageQueueWait, t.enq, groupStart.Sub(t.enq))
	}
	reqs := make([]query.Request, len(group))
	for i, t := range group {
		reqs[i] = query.Request{Mech: t.canon.Mech, Profile: t.canon.Profile, Approx: t.canon.Approx}
	}
	resps, durs := ev.EvaluateBatchTimed(reqs, b.workers)
	evalDur := time.Since(groupStart)
	for i, t := range group {
		// Every task shares the round's evaluate wall; its own compute
		// time nests inside (start aligned to the batch start — the
		// engine does not report per-request scheduling offsets).
		t.span(obs.StageEvaluate, groupStart, evalDur)
		t.span(obs.StageCompute, groupStart, durs[i])
		if !roundStart.IsZero() {
			// Replica dispatch: the concurrent window this group occupied,
			// slot wait included (its excess over evaluate is contention).
			t.span(obs.StageParallelEvaluate, roundStart, time.Since(roundStart))
		}
	}
	for i, t := range group {
		var res taskResult
		encStart := time.Now()
		if resps[i].Err != nil {
			res.err = resps[i].Err
		} else if body, err := EncodeOutcomeCert(entry.Name, t.canon.Mech, resps[i].Outcome, resps[i].Cert); err != nil {
			res.err = fmt.Errorf("%w: %v", errInternal, err)
		} else {
			b.cache.Put(t.key, body)
			if t.entry.evicted.Load() || t.entry.Ev.Version() != t.ver {
				// The entry left the registry — or its network was
				// updated past the version we were admitted with — while
				// we were evaluating. Our Put may have landed after the
				// handler's DeletePrefix for our retired prefix, which
				// would strand an entry no future request can reach in
				// LRU capacity forever. Deleting our own key closes the
				// race: if we instead observed evicted == false and our
				// own version, the flip happened after our Put, and the
				// handler's DeletePrefix — which runs after the flip —
				// is guaranteed to sweep it.
				b.cache.Delete(t.key)
			}
			res.body = body
			t.span(obs.StageEncode, encStart, time.Since(encStart))
		}
		replied++
		t.reply <- res
	}
}
