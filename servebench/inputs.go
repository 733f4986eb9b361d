package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

// Every input a run sends is generated here from --seed, before the
// server boots: request bodies and PATCH deltas are JSON-encoded up
// front, so the timed phase does nothing on the client side but send
// bytes and compare bytes.
//
// Every workload PATCHes inline, from inside the closed loop, so that the
// write:read ratio does not depend on speed and update latency is
// measured under the workload's own load. A network's deltas belong to
// one client, so they apply in order. churn PATCHes the networks it
// reads; hot-read and cold-compute PATCH one control network per client
// that no read touches, so their reads are unaffected.

const (
	clients  = 2    // closed-loop clients, one per core of the reference machine
	poolSize = 64   // hot pool per network (hot-read, churn)
	zipfS    = 1.2  // popularity skew over a hot pool
	uMax     = 50.0 // utilities are drawn in [0, uMax)
)

// approxWire is the sampled-tier spec cold-compute sends to its two
// Shapley networks.
var approxWire = serve.ApproxWire{Samples: 1024, Delta: 0.05, Seed: 1}

type opKind uint8

const (
	opRead opKind = iota
	opPatch
)

// op is one client operation: a read of request item of network net, or
// a PATCH carrying delta item of network net.
type op struct {
	kind opKind
	net  int
	item int
}

// netInput is one hosted network and everything the run sends to it.
type netInput struct {
	spec  instances.Spec
	nw    *wireless.Network // version 0
	model string            // churn model of the network's class
	reqs  []serve.EvalRequest
	// bodies[i] is reqs[i] encoded.
	bodies [][]byte
	deltas []instances.Update
	// deltaBodies[k] is deltas[k] encoded; snaps[k] is the network after
	// deltas[0..k], whose Version() a PATCH of delta k must answer.
	deltaBodies [][]byte
	snaps       []*wireless.Network
}

// inputs is one workload's generated traffic.
type inputs struct {
	wl   *workload
	seed int64
	nets []*netInput
	// setup holds each client's prefill or warm-up reads, timed its timed
	// phase.
	setup [clients][]op
	timed [clients][]op
}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// tail is the tail percentile reported as latency_tail_ms: the
	// highest that keeps ten samples beyond it at the workload's size.
	tail float64
	// A client sends patchBurst PATCHes after every readsPerPatch reads.
	readsPerPatch, patchBurst int
	// setups is how many times a run boots and sets up the stack;
	// setup_s is their median and the last one serves the timed phase.
	setups int
	// nominalQPS sizes a run: a run sends seconds × nominalQPS reads (at
	// least minReads), a fixed count, so that sample counts and the
	// request mix are the same on every commit.
	nominalQPS float64
	minReads   int
	gen        func(in *inputs, reads int) error
}

var workloads = []*workload{
	{name: "hot-read", tail: 0.99, readsPerPatch: 199, patchBurst: 1, setups: 3, nominalQPS: 25000, minReads: 24000, gen: genHotRead},
	{name: "cold-compute", tail: 0.90, readsPerPatch: 1, patchBurst: 4, setups: 5, nominalQPS: 32, minReads: 200, gen: genColdCompute},
	{name: "churn", tail: 0.99, readsPerPatch: 199, patchBurst: 1, setups: 5, nominalQPS: 4500, minReads: 24000, gen: genChurn},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// readsFor is the number of reads each client sends in a run of the
// given length.
func (w *workload) readsFor(seconds int) int {
	return max(int(float64(seconds)*w.nominalQPS), w.minReads) / clients
}

// generate builds the workload's inputs for a seed.
func generate(w *workload, seed int64, seconds int) (*inputs, error) {
	in := &inputs{wl: w, seed: seed}
	if err := w.gen(in, w.readsFor(seconds)); err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	return in, nil
}

func (in *inputs) addNet(sp instances.Spec) (*netInput, error) {
	nw, err := sp.Build()
	if err != nil {
		return nil, err
	}
	ni := &netInput{spec: sp, nw: nw, model: instances.ChurnModelFor(nw).Name}
	in.nets = append(in.nets, ni)
	return ni, nil
}

func (in *inputs) specs() []instances.Spec {
	out := make([]instances.Spec, len(in.nets))
	for i, ni := range in.nets {
		out[i] = ni.spec
	}
	return out
}

// drawer draws requests for one network whose canonical keys are all
// distinct, so a request meant to miss the cache never hits it.
type drawer struct {
	ni      *netInput
	sampler instances.Sampler
	seen    map[string]bool
}

func newDrawer(ni *netInput, rng *rand.Rand, seen map[string]bool) (*drawer, error) {
	wl, err := instances.WorkloadByName("uniform")
	if err != nil {
		return nil, err
	}
	return &drawer{ni: ni, sampler: wl.New(rng, ni.nw, instances.WorkloadOptions{UMax: uMax}), seen: seen}, nil
}

// draw appends a fresh request for mech to the network and returns its
// index.
func (d *drawer) draw(mech string, approx *serve.ApproxWire) (int, error) {
	for tries := 0; tries < 100; tries++ {
		q := d.sampler.Next()
		req := serve.EvalRequest{Network: d.ni.spec.Name, Mech: mech, R: q.R, Profile: q.U, Approx: approx}
		c, err := serve.Canonicalize(req, d.ni.nw.N(), d.ni.nw.Source())
		if err != nil {
			return 0, err
		}
		if d.seen[c.Key] {
			continue
		}
		d.seen[c.Key] = true
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		d.ni.reqs = append(d.ni.reqs, req)
		d.ni.bodies = append(d.ni.bodies, body)
		return len(d.ni.reqs) - 1, nil
	}
	return 0, fmt.Errorf("%s: no fresh request in 100 draws", d.ni.spec.Name)
}

// fillPool draws size requests for the network, pinning request i to the
// i-th supported mechanism round-robin.
func fillPool(ni *netInput, rng *rand.Rand, size int) error {
	d, err := newDrawer(ni, rng, map[string]bool{})
	if err != nil {
		return err
	}
	mechs := mechreg.SupportedNames(ni.nw)
	for i := 0; i < size; i++ {
		if _, err := d.draw(mechs[i%len(mechs)], nil); err != nil {
			return err
		}
	}
	return nil
}

// prefill spreads every request of the given networks over the clients'
// setup, once each.
func (in *inputs) prefill(nets []int) {
	k := len(in.setup[0]) + len(in.setup[1])
	for _, j := range nets {
		for i := range in.nets[j].reqs {
			in.setup[k%clients] = append(in.setup[k%clients], op{kind: opRead, net: j, item: i})
			k++
		}
	}
}

// addControl hosts one control network per client, with one request per
// supported mechanism prefilled in setup, so that its PATCHes rebuild
// and warm every mechanism, as on a network in use.
func (in *inputs) addControl(specs [clients]instances.Spec, task int) ([clients]int, error) {
	var idx [clients]int
	for c, sp := range specs {
		ni, err := in.addNet(sp)
		if err != nil {
			return idx, err
		}
		if err := fillPool(ni, engine.RNG(in.seed, task+c), len(mechreg.SupportedNames(ni.nw))); err != nil {
			return idx, err
		}
		idx[c] = len(in.nets) - 1
		in.prefill([]int{idx[c]})
	}
	return idx, nil
}

// balancedOrder is a seeded shuffle of count indices below nets with
// equal shares per index, so the mix is the same for every seed while
// each client's order is its own.
func balancedOrder(rng *rand.Rand, nets, count int) []int {
	order := make([]int, count)
	for i := range order {
		order[i] = i % nets
	}
	rng.Shuffle(count, func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}

// zipfReads draws count pool reads over networks 0..nets-1: the network
// from a balanced order, the pool entry from a Zipf law per network.
func zipfReads(rng *rand.Rand, nets, count int) []op {
	order := balancedOrder(rng, nets, count)
	zipfs := make([]*rand.Zipf, nets)
	for j := range zipfs {
		zipfs[j] = rand.NewZipf(rng, zipfS, 1, poolSize-1)
	}
	ops := make([]op, count)
	for i, j := range order {
		ops[i] = op{kind: opRead, net: j, item: int(zipfs[j].Uint64())}
	}
	return ops
}

// layOut builds each client's timed phase from its reads: patchBurst
// PATCHes of the client's own networks, round-robin, after every
// readsPerPatch reads; then it draws the deltas those PATCHes carry.
func (in *inputs) layOut(reads [clients][]op, owned [clients][]int, task int) error {
	deltas := make([]int, len(in.nets))
	for c := range in.timed {
		p := 0
		for i, r := range reads[c] {
			in.timed[c] = append(in.timed[c], r)
			if (i+1)%in.wl.readsPerPatch != 0 {
				continue
			}
			for b := 0; b < in.wl.patchBurst; b++ {
				j := owned[c][p%len(owned[c])]
				in.timed[c] = append(in.timed[c], op{kind: opPatch, net: j, item: deltas[j]})
				deltas[j]++
				p++
			}
		}
	}
	for j, ni := range in.nets {
		if err := addDeltas(ni, engine.RNG(in.seed, task+j), deltas[j]); err != nil {
			return err
		}
	}
	return nil
}

// addDeltas draws count successive deltas of the network's churn model
// and records the network state each one leads to.
func addDeltas(ni *netInput, rng *rand.Rand, count int) error {
	if count == 0 {
		return nil
	}
	model, err := instances.ChurnByName(ni.model)
	if err != nil {
		return err
	}
	ch := model.New(rng, ni.nw, instances.ChurnOptions{})
	state := ni.nw.Snapshot()
	for len(ni.deltas) < count {
		up := ch.Next()
		if up.Empty() {
			return fmt.Errorf("%s: churn model %s emitted an empty delta", ni.spec.Name, ni.model)
		}
		if err := up.Apply(state); err != nil {
			return err
		}
		body, err := json.Marshal(up)
		if err != nil {
			return err
		}
		ni.deltas = append(ni.deltas, up)
		ni.deltaBodies = append(ni.deltaBodies, body)
		ni.snaps = append(ni.snaps, state.Snapshot())
	}
	return nil
}

// genHotRead: wmcsd's four demo networks, a hot pool of 64 per network
// prefilled in setup, then Zipf reads that all hit the cache.
func genHotRead(in *inputs, reads int) error {
	specs := serve.DefaultSpecs()
	for j, sp := range specs {
		ni, err := in.addNet(sp)
		if err != nil {
			return err
		}
		if err := fillPool(ni, engine.RNG(in.seed, 100+j), poolSize); err != nil {
			return err
		}
	}
	in.prefill([]int{0, 1, 2, 3})
	ctl, err := in.addControl([clients]instances.Spec{
		{Name: "hot-ctl0", Scenario: "uniform", N: 12, Alpha: 2, Seed: 31},
		{Name: "hot-ctl1", Scenario: "uniform", N: 12, Alpha: 2, Seed: 32},
	}, 150)
	if err != nil {
		return err
	}
	var ops [clients][]op
	var owned [clients][]int
	for c := range ops {
		ops[c] = zipfReads(engine.RNG(in.seed, 200+c), len(specs), reads)
		owned[c] = []int{ctl[c]}
	}
	return in.layOut(ops, owned, 300)
}

// coldNets are cold-compute's networks and the one mechanism each serves;
// approx marks the sampled tier. Every class costs milliseconds per query,
// so no request is mostly HTTP.
var coldNets = []struct {
	spec   instances.Spec
	mech   string
	approx bool
}{
	{instances.Spec{Name: "cold-uni12", Scenario: "uniform", N: 12, Alpha: 2, Seed: 11}, mechreg.WirelessBB, false},
	{instances.Spec{Name: "cold-sym12", Scenario: "symmetric", N: 12, Alpha: 2, Seed: 12}, mechreg.WirelessBB, false},
	{instances.Spec{Name: "cold-uni32", Scenario: "uniform", N: 32, Alpha: 2, Seed: 13}, mechreg.UniversalShapley, true},
	{instances.Spec{Name: "cold-line32", Scenario: "line", N: 32, Alpha: 2, Seed: 14}, mechreg.LineShapley, true},
	{instances.Spec{Name: "cold-uni48", Scenario: "uniform", N: 48, Alpha: 2, Seed: 15}, mechreg.JVMoat, false},
}

// coldWarmups is how many warm-up requests per network cold-compute's
// setup sends, from streams of their own.
const coldWarmups = 2

// genColdCompute: every read a fresh (R, u), so each one misses the cache
// and is computed.
func genColdCompute(in *inputs, reads int) error {
	seen := make([]map[string]bool, len(coldNets))
	for j, cn := range coldNets {
		if _, err := in.addNet(cn.spec); err != nil {
			return err
		}
		seen[j] = map[string]bool{}
	}
	draw := func(j int, d *drawer) (op, error) {
		var approx *serve.ApproxWire
		if coldNets[j].approx {
			a := approxWire
			approx = &a
		}
		i, err := d.draw(coldNets[j].mech, approx)
		return op{kind: opRead, net: j, item: i}, err
	}
	for j, ni := range in.nets {
		d, err := newDrawer(ni, engine.RNG(in.seed, 500+j), seen[j])
		if err != nil {
			return err
		}
		for k := 0; k < coldWarmups; k++ {
			o, err := draw(j, d)
			if err != nil {
				return err
			}
			in.setup[k%clients] = append(in.setup[k%clients], o)
		}
	}
	ctl, err := in.addControl([clients]instances.Spec{
		{Name: "cold-ctl0", Scenario: "symmetric", N: 12, Alpha: 2, Seed: 16},
		{Name: "cold-ctl1", Scenario: "uniform", N: 12, Alpha: 2, Seed: 17},
	}, 550)
	if err != nil {
		return err
	}
	var ops [clients][]op
	var owned [clients][]int
	for c := range ops {
		drawers := make([]*drawer, len(coldNets))
		for j := range coldNets {
			d, err := newDrawer(in.nets[j], engine.RNG(in.seed, 410+c*len(coldNets)+j), seen[j])
			if err != nil {
				return err
			}
			drawers[j] = d
		}
		for _, j := range balancedOrder(engine.RNG(in.seed, 400+c), len(coldNets), reads) {
			o, err := draw(j, drawers[j])
			if err != nil {
				return err
			}
			ops[c] = append(ops[c], o)
		}
		owned[c] = []int{ctl[c]}
	}
	return in.layOut(ops, owned, 600)
}

// churnSpecs are churn's networks: small enough (n = 8) that the refill
// misses each PATCH causes stay in the low milliseconds. The three
// Euclidean ones drift by mobility, the symmetric one by battery drain.
var churnSpecs = []instances.Spec{
	{Name: "churn-uni8", Scenario: "uniform", N: 8, Alpha: 2, Seed: 21},
	{Name: "churn-clust8", Scenario: "clustered", N: 8, Alpha: 2, Seed: 22},
	{Name: "churn-line8", Scenario: "line", N: 8, Alpha: 2, Seed: 23},
	{Name: "churn-sym8", Scenario: "symmetric", N: 8, Alpha: 2, Seed: 24},
}

// genChurn: hot-read's traffic on four small networks whose PATCHes
// retire the cache entries the reads then miss. Network j belongs to
// client j mod clients.
func genChurn(in *inputs, reads int) error {
	for j, sp := range churnSpecs {
		ni, err := in.addNet(sp)
		if err != nil {
			return err
		}
		if err := fillPool(ni, engine.RNG(in.seed, 700+j), poolSize); err != nil {
			return err
		}
	}
	in.prefill([]int{0, 1, 2, 3})
	var ops [clients][]op
	var owned [clients][]int
	for c := range ops {
		ops[c] = zipfReads(engine.RNG(in.seed, 800+c), len(churnSpecs), reads)
		for j := c; j < len(churnSpecs); j += clients {
			owned[c] = append(owned[c], j)
		}
	}
	return in.layOut(ops, owned, 900)
}
