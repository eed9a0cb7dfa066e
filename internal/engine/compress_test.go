package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// standardConfigs returns the paper's five configuration families over
// a three-asset placement, for sweeping tests.
func standardConfigs(t testing.TB, primary, second, dc string) []topology.Config {
	t.Helper()
	configs, err := topology.StandardConfigs(topology.Placement{Primary: primary, Second: second, DataCenter: dc})
	if err != nil {
		t.Fatal(err)
	}
	return configs
}

// TestCompressInvariants checks the structural contract of Compress:
// weights sum to the input rows, every distinct row reproduces a source
// row bit-for-bit, distinct rows appear in first-occurrence order, and
// no two distinct rows are equal.
func TestCompressInvariants(t *testing.T) {
	assets := []string{"a", "b", "c", "d", "e"}
	for _, seed := range []int64{1, 2, 3} {
		e := randomEnsemble(t, seed, 400, assets)
		m, err := engine.NewFailureMatrix(e, assets)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := m.Columns(assets)
		if err != nil {
			t.Fatal(err)
		}
		cm := engine.Compress(m, 1)
		if cm.Source() != m {
			t.Fatal("Source() is not the input matrix")
		}
		if cm.Rows() != m.Rows() {
			t.Fatalf("Rows() = %d, want %d", cm.Rows(), m.Rows())
		}
		sum := 0
		for i := 0; i < cm.DistinctRows(); i++ {
			if cm.Weight(i) < 1 {
				t.Fatalf("Weight(%d) = %d", i, cm.Weight(i))
			}
			sum += cm.Weight(i)
		}
		if sum != m.Rows() {
			t.Errorf("weights sum to %d, want %d", sum, m.Rows())
		}
		if want := float64(cm.DistinctRows()) / float64(m.Rows()); cm.Ratio() != want {
			t.Errorf("Ratio() = %v, want %v", cm.Ratio(), want)
		}
		// Walk the source rows: each must map to exactly one distinct
		// pattern, and the first time each distinct index is seen must be
		// in increasing order (first-occurrence order). Re-derive the
		// weights as a cross-check.
		index := map[uint64]int{}
		weights := make([]int, cm.DistinctRows())
		next := 0
		for r := 0; r < m.Rows(); r++ {
			p := m.Pattern(r, cols)
			d, ok := index[p]
			if !ok {
				d = next
				next++
				index[p] = d
				if d >= cm.DistinctRows() {
					t.Fatalf("row %d introduces pattern %d beyond DistinctRows %d", r, d, cm.DistinctRows())
				}
				if got := cm.Pattern(d, cols); got != p {
					t.Fatalf("distinct row %d pattern = %b, want first-occurrence %b", d, got, p)
				}
			}
			weights[d]++
		}
		if next != cm.DistinctRows() {
			t.Fatalf("source has %d distinct patterns, Compress found %d", next, cm.DistinctRows())
		}
		for d, w := range weights {
			if cm.Weight(d) != w {
				t.Errorf("Weight(%d) = %d, want %d", d, cm.Weight(d), w)
			}
		}
		// Gather must agree with Pattern on every distinct row.
		var buf []bool
		for d := 0; d < cm.DistinctRows(); d++ {
			buf = cm.Gather(buf[:0], d, cols)
			p := cm.Pattern(d, cols)
			for j := range cols {
				if buf[j] != (p&(1<<uint(j)) != 0) {
					t.Errorf("Gather(%d)[%d] = %v disagrees with Pattern bit", d, j, buf[j])
				}
			}
		}
	}
}

// TestCompressDeterministicAcrossWorkers: only the hashing pass
// parallelizes, so the distinct-row order and weights must be identical
// for every worker count.
func TestCompressDeterministicAcrossWorkers(t *testing.T) {
	assets := []string{"a", "b", "c", "d"}
	e := randomEnsemble(t, 9, 600, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := m.Columns(assets)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Compress(m, 1)
	for _, workers := range []int{2, 3, 8, 0} {
		got := engine.Compress(m, workers)
		if got.DistinctRows() != want.DistinctRows() {
			t.Fatalf("workers=%d: %d distinct rows, want %d", workers, got.DistinctRows(), want.DistinctRows())
		}
		for d := 0; d < want.DistinctRows(); d++ {
			if got.Weight(d) != want.Weight(d) || got.Pattern(d, cols) != want.Pattern(d, cols) {
				t.Errorf("workers=%d distinct row %d: (pattern %b, weight %d), want (%b, %d)",
					workers, d, got.Pattern(d, cols), got.Weight(d), want.Pattern(d, cols), want.Weight(d))
			}
		}
	}
}

// entryPointConfigs returns every configuration shape the entry point
// must dispatch correctly over assets p, s, d, x: the paper's five
// families, NewConfigKSite for k = 1…4, and an active configuration
// with non-uniform replicas (asymmetric, so it takes the evaluator).
func entryPointConfigs(t testing.TB) []topology.Config {
	configs := standardConfigs(t, "p", "s", "d")
	ids := []string{"p", "s", "d", "x"}
	for k := 1; k <= len(ids); k++ {
		configs = append(configs, topology.NewConfigKSite(ids[:k]))
	}
	return append(configs, topology.Config{
		Name: "6+3+6",
		Arch: topology.ActiveReplication,
		Sites: []topology.Site{
			{AssetID: "p", Role: topology.RolePrimary, Replicas: 6},
			{AssetID: "s", Role: topology.RoleActive, Replicas: 3},
			{AssetID: "d", Role: topology.RoleActive, Replicas: 6},
		},
		IntrusionsTolerated: 1,
		RecoverySlots:       1,
		MinActiveSites:      2,
	})
}

// TestCellCountsCompressedMatchesCellCounts is the compressed path's
// central claim: for random and all-distinct ensembles, every
// configuration shape, and every scenario, the evaluation entry point
// (engine.Cells, and CellCountsCompressed over it) is bit-identical to
// walking all realizations with CellCounts — for any worker count, on
// the arm SymmetricConfig selects, equal to the evaluator's weighted
// pass, with one Cells value shared across every cell in sequence and
// from concurrent goroutines, and allocation-free in steady state on
// both arms.
func TestCellCountsCompressedMatchesCellCounts(t *testing.T) {
	rec := obs.New()
	obs.Enable(rec)
	defer obs.Enable(nil)
	kernelPatterns := rec.Counter("engine.kernel_patterns")

	assets := []string{"p", "s", "d", "x"}
	configs := entryPointConfigs(t)
	var ensembles []*hazard.Ensemble
	for _, seed := range []int64{10, 11, 12} {
		ensembles = append(ensembles, randomEnsemble(t, seed, 350, assets))
	}
	ensembles = append(ensembles, allDistinctEnsemble(t, append(assets, "e", "f", "g", "h", "i", "j"), 300))

	type cell struct {
		cfg  topology.Config
		sc   threat.Scenario
		want engine.Counts
	}
	for ei, e := range ensembles {
		m, err := engine.NewFailureMatrix(e, e.AssetIDs())
		if err != nil {
			t.Fatal(err)
		}
		cm := engine.Compress(m, 0)
		cells := engine.NewCells(cm)
		var all []cell
		for _, cfg := range configs {
			for _, sc := range threat.Scenarios() {
				want, err := engine.CellCounts(m, cfg, sc.Capability(), 1)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, cell{cfg, sc, want})
				label := fmt.Sprintf("ensemble %d %s/%v", ei, cfg.Name, sc)
				for _, workers := range []int{1, 2, 8, 0} {
					got, err := engine.CellCountsCompressed(cm, cfg, sc.Capability(), workers)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s workers=%d: compressed %v != reference %v", label, workers, got, want)
					}
				}

				// The shared entry point, reused across every cell: the
				// arm it takes is the one SymmetricConfig selects.
				before := kernelPatterns.Value()
				got, err := cells.Counts(cfg, sc.Capability(), 1)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: shared entry point %v != reference %v", label, got, want)
				}
				if kernel := kernelPatterns.Value() > before; kernel != engine.SymmetricConfig(cfg) {
					t.Errorf("%s: kernel arm taken = %v, want %v", label, kernel, engine.SymmetricConfig(cfg))
				}

				// Kernel and evaluator agree wherever both apply.
				ev, err := engine.NewEvaluator(m, cfg, sc.Capability())
				if err != nil {
					t.Fatal(err)
				}
				var evCounts engine.Counts
				if err := ev.AddWeighted(&evCounts, cm, 0, cm.DistinctRows()); err != nil {
					t.Fatal(err)
				}
				if got != evCounts {
					t.Errorf("%s: entry point %v != evaluator %v", label, got, evCounts)
				}
			}
		}

		// A configuration of an already-tabled shape is still
		// validated: an unnamed "6+6+6" fails as the evaluator does.
		unnamed := configs[4]
		unnamed.Name = ""
		_, want := engine.CellCounts(m, unnamed, threat.Hurricane.Capability(), 1)
		if _, err := cells.Counts(unnamed, threat.Hurricane.Capability(), 1); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("ensemble %d: unnamed %s: err = %v, want %v", ei, configs[4].Name, err, want)
		}

		// One value from several goroutines, each walking the cells in
		// a different order (run under -race by make verify).
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range all {
					c := all[(i*(g+1)+g)%len(all)]
					got, err := cells.Counts(c.cfg, c.sc.Capability(), 1)
					if err != nil || got != c.want {
						t.Errorf("ensemble %d goroutine %d %s/%v: %v (err %v), want %v", ei, g, c.cfg.Name, c.sc, got, err, c.want)
					}
				}
			}(g)
		}
		wg.Wait()

		// Steady state allocates nothing on either arm. The race
		// detector makes sync.Pool drop items at random, so the exact
		// count is checked only without it.
		if raceEnabled {
			continue
		}
		for _, cfg := range []topology.Config{configs[4], configs[3]} { // "6+6+6" (kernel), "6-6" (evaluator)
			capability := threat.HurricaneIntrusionIsolation.Capability()
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := cells.Counts(cfg, capability, 1); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("ensemble %d %s: Cells.Counts allocated %v times per run", ei, cfg.Name, allocs)
			}
		}
	}
}

// allDistinctEnsemble is the adversarial worst case for compression:
// row r's failure pattern is the binary encoding of r over the assets,
// so every realization is distinct while rows < 2^len(assetIDs).
func allDistinctEnsemble(t testing.TB, assetIDs []string, realizations int) *hazard.Ensemble {
	t.Helper()
	cfg := hazard.OahuScenario()
	cfg.Realizations = realizations
	rows := make([][]float64, realizations)
	for r := range rows {
		rows[r] = make([]float64, len(assetIDs))
		for i := range rows[r] {
			if r>>uint(i)&1 == 1 {
				rows[r][i] = 1.0
			}
		}
	}
	e, err := hazard.NewEnsembleFromDepths(cfg, assetIDs, rows)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCompressAllDistinct is the adversarial worst case: an ensemble
// where every realization's failure pattern is unique. Compression must
// degrade gracefully — ratio exactly 1.0, every weight 1 — and the
// weighted path must still match the plain one.
func TestCompressAllDistinct(t *testing.T) {
	assetIDs := make([]string, 10)
	for i := range assetIDs {
		assetIDs[i] = string(rune('a' + i))
	}
	const realizations = 300
	e := allDistinctEnsemble(t, assetIDs, realizations)
	m, err := engine.NewFailureMatrix(e, assetIDs)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 0)
	if cm.DistinctRows() != realizations {
		t.Fatalf("DistinctRows = %d, want %d (all rows distinct)", cm.DistinctRows(), realizations)
	}
	if cm.Ratio() != 1.0 {
		t.Fatalf("Ratio = %v, want exactly 1.0", cm.Ratio())
	}
	for i := 0; i < cm.DistinctRows(); i++ {
		if cm.Weight(i) != 1 {
			t.Fatalf("Weight(%d) = %d, want 1", i, cm.Weight(i))
		}
	}
	config := topology.NewConfig666("a", "b", "c")
	for _, sc := range threat.Scenarios() {
		want, err := engine.CellCounts(m, config, sc.Capability(), 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.CellCountsCompressed(cm, config, sc.Capability(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: compressed %v != reference %v", sc, got, want)
		}
	}
}

// TestAddWeightedRejectsForeignMatrix: pairing a compressed view with
// an evaluator built over a different matrix is an error, not silent
// garbage.
func TestAddWeightedRejectsForeignMatrix(t *testing.T) {
	assets := []string{"p", "s"}
	e1 := randomEnsemble(t, 31, 50, assets)
	e2 := randomEnsemble(t, 32, 50, assets)
	m1, err := engine.NewFailureMatrix(e1, assets)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := engine.NewFailureMatrix(e2, assets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topology.NewConfig66("p", "s")
	capability := threat.Hurricane.Capability()
	ev, err := engine.NewEvaluator(m1, cfg, capability)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m2, 1)
	var counts engine.Counts
	if err := ev.AddWeighted(&counts, cm, 0, cm.DistinctRows()); err == nil {
		t.Fatal("AddWeighted accepted a compression of a different matrix")
	}
}
