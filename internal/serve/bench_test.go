package serve

import (
	"math/rand"
	"testing"

	"wmcs/internal/instances"
)

// BenchmarkServeHotSet drives the full serving path — codec, cache,
// singleflight, admission — with the registry's Zipf hot-set workload
// on one network, the shape the cache is built for. The hit-rate metric
// it reports is the steady-state fraction served from the cache.
func BenchmarkServeHotSet(b *testing.B) {
	reg := NewRegistry()
	spec := instances.Spec{Name: "bench", Scenario: "uniform", N: 12, Alpha: 2, Seed: 9}
	if err := reg.RegisterSpec(spec); err != nil {
		b.Fatal(err)
	}
	entry, _ := reg.Get("bench")
	s := NewServer(reg, Options{})
	defer s.Close()

	w, err := instances.WorkloadByName("hotset")
	if err != nil {
		b.Fatal(err)
	}
	sampler := w.New(rand.New(rand.NewSource(3)), entry.Net, instances.WorkloadOptions{HotSets: 64})

	var hits, total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := sampler.Next()
		c, err := Canonicalize(EvalRequest{
			Network: "bench", Mech: "wireless-bb", R: q.R, Profile: q.U,
		}, entry.Net.N(), entry.Net.Source())
		if err != nil {
			b.Fatal(err)
		}
		_, source, err := s.EvaluateCanon(c)
		if err != nil {
			b.Fatal(err)
		}
		total++
		if source == "hit" {
			hits++
		}
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(float64(hits)/float64(total), "hit-rate")
	}
}
