package placement

// Placement-search benchmarks backing BENCH_6.json: the word-parallel
// kernel against the memoized evaluator on the paper's Oahu pair
// search (matrix precompiled, so the numbers isolate per-placement
// evaluation — the part the kernel changes), and k-site search at
// production scale on synthetic universes.
//
// Refresh the baseline with:
//
//	make bench-placement

import (
	"sync"
	"testing"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

var (
	benchOnce sync.Once
	benchEns  *hazard.Ensemble
	benchInv  *assets.Inventory
	benchErr  error
)

// benchOahu generates the paper's 1000-realization Oahu ensemble once
// per benchmark binary.
func benchOahu(b *testing.B) (*hazard.Ensemble, *assets.Inventory) {
	b.Helper()
	benchOnce.Do(func() {
		benchInv = assets.Oahu()
		gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), benchInv)
		if err != nil {
			benchErr = err
			return
		}
		benchEns, benchErr = gen.Generate(hazard.OahuScenario())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEns, benchInv
}

// benchPairSetup compiles the Oahu pair-search workload once: the 12
// candidate-pair configurations, the candidate-universe matrix, and
// its compressed form.
func benchPairSetup(b *testing.B) ([]topology.Config, *engine.FailureMatrix, *engine.CompressedMatrix) {
	b.Helper()
	e, inv := benchOahu(b)
	req := Request{Ensemble: e, Inventory: inv, Primary: assets.HonoluluCC, Scenario: threat.HurricaneIntrusionIsolation}
	req.setDefaults()
	placements := pairPlacements(req)
	configs := make([]topology.Config, len(placements))
	var universe []string
	seen := map[string]bool{}
	for i, p := range placements {
		configs[i] = req.Build(p)
		for _, s := range configs[i].Sites {
			if !seen[s.AssetID] {
				seen[s.AssetID] = true
				universe = append(universe, s.AssetID)
			}
		}
	}
	m, err := engine.NewFailureMatrix(e, universe)
	if err != nil {
		b.Fatal(err)
	}
	return configs, m, engine.Compress(m, 0)
}

// BenchmarkPairsKernel evaluates all 12 Oahu candidate pairs per
// iteration with the word-parallel mask kernel.
func BenchmarkPairsKernel(b *testing.B) {
	configs, _, cm := benchPairSetup(b)
	capability := threat.HurricaneIntrusionIsolation.Capability()
	// Every candidate is the same symmetric "6+6+6" shape, so one
	// table serves all twelve, as in the search itself.
	tbl, err := engine.StateByCount(configs[0], capability)
	if err != nil {
		b.Fatal(err)
	}
	kernel := engine.NewMaskKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			var counts engine.Counts
			if err := kernel.BindConfig(cm, tbl, cfg); err != nil {
				b.Fatal(err)
			}
			kernel.AddWeighted(&counts, 0, cm.DistinctRows())
		}
	}
}

// BenchmarkPairsEvaluator is the same workload on the memoized
// per-pattern evaluator — the path engine.Cells takes for asymmetric
// configurations.
func BenchmarkPairsEvaluator(b *testing.B) {
	configs, m, cm := benchPairSetup(b)
	capability := threat.HurricaneIntrusionIsolation.Capability()
	var pool engine.EvaluatorPool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			var counts engine.Counts
			ev, err := pool.Get(m, cfg, capability)
			if err != nil {
				b.Fatal(err)
			}
			if err := ev.AddWeighted(&counts, cm, 0, cm.DistinctRows()); err != nil {
				b.Fatal(err)
			}
			pool.Put(ev)
		}
	}
}

// BenchmarkKSiteGreedy runs the full production-shape search per
// iteration — matrix compile, compression, and CELF greedy — over a
// 1024-candidate, 1000-realization synthetic universe at K = 8.
func BenchmarkKSiteGreedy(b *testing.B) {
	e, err := SyntheticUniverse(1024, 1000, 19480628)
	if err != nil {
		b.Fatal(err)
	}
	req := KRequest{
		Ensemble:   e,
		Candidates: e.AssetIDs(),
		K:          8,
		Scenario:   threat.HurricaneIntrusionIsolation,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchK(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKSiteExact runs branch-and-bound to the provable optimum
// over a 24-candidate synthetic universe at K = 4 (10,626 subsets
// before pruning).
func BenchmarkKSiteExact(b *testing.B) {
	e, err := SyntheticUniverse(24, 400, 7)
	if err != nil {
		b.Fatal(err)
	}
	req := KRequest{
		Ensemble:   e,
		Candidates: e.AssetIDs(),
		K:          4,
		Scenario:   threat.HurricaneIntrusionIsolation,
		Exact:      true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchK(req); err != nil {
			b.Fatal(err)
		}
	}
}
