package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/cmdtest"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/topology"

	oahuassets "compoundthreat/internal/assets"
)

func TestMain(m *testing.M) {
	cmdtest.MaybeRunMain(main)
	os.Exit(m.Run())
}

// TestBadFlagExitsNonZero re-executes main with an undefined flag and
// asserts the process exits non-zero with a usage message.
func TestBadFlagExitsNonZero(t *testing.T) {
	cmdtest.AssertBadFlagExit(t)
}

// TestMetricsReport runs the Figure 9 evaluation with -metrics and
// checks the run report: phase timings, memo statistics, worker
// accounting, and per-figure state tallies that match the sequential
// reference implementation exactly.
func TestMetricsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests in -short mode")
	}
	const realizations = 50
	path := filepath.Join(t.TempDir(), "report.json")
	args := []string{"-realizations", "50", "-fig", "9", "-metrics", path}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if obs.Default() != nil {
		t.Fatal("run left the process-wide recorder enabled")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("run report is not valid JSON: %v", err)
	}
	if rep.Schema != obs.ReportSchema || rep.Command != "compoundsim" {
		t.Fatalf("report header = %q / %q", rep.Schema, rep.Command)
	}

	// Phase timings for generation and evaluation must be present.
	phases := map[string]obs.PhaseReport{}
	for _, p := range rep.Phases {
		phases[p.Name] = p
	}
	for _, name := range []string{"cli.generate_ensemble", "analysis.figure", "engine.matrix_compile", "engine.foreach_wall", "engine.worker_busy"} {
		p, ok := phases[name]
		if !ok || p.Count == 0 {
			t.Errorf("phase %q missing from run report", name)
		}
	}

	// Dedup statistics: the failure matrix is compressed once (dedup is
	// on by default), and the report carries both the raw counters and
	// the derived dedup block.
	distinct := rep.Counters["engine.distinct_patterns"]
	if distinct < 1 || distinct > realizations {
		t.Fatalf("engine.distinct_patterns = %d, want within [1, %d]", distinct, realizations)
	}
	if got := rep.Counters["engine.dedup_input_rows"]; got != realizations {
		t.Errorf("engine.dedup_input_rows = %d, want %d", got, realizations)
	}
	if rep.Dedup == nil {
		t.Fatal("dedup block missing from run report")
	}
	if rep.Dedup.InputRows != realizations || rep.Dedup.DistinctRows != distinct {
		t.Errorf("dedup block = %+v, want input %d distinct %d", rep.Dedup, realizations, distinct)
	}
	if want := float64(distinct) / float64(realizations); rep.Dedup.Ratio != want {
		t.Errorf("dedup ratio = %v, want %v", rep.Dedup.Ratio, want)
	}
	if rep.Dedup.CompressWallNS <= 0 {
		t.Errorf("dedup compress_wall_ns = %d, want > 0", rep.Dedup.CompressWallNS)
	}

	// Pattern statistics: each of the five configuration cells visits
	// only the distinct flood patterns — through the memoized evaluator
	// (memo hits + misses) or the word-parallel kernel (kernel
	// patterns) — while the realization counter still accounts for the
	// full weighted coverage on both.
	hits, misses := rep.Counters["engine.memo_hits"], rep.Counters["engine.memo_misses"]
	kernel := rep.Counters["engine.kernel_patterns"]
	if want := 5 * distinct; hits+misses+kernel != want {
		t.Errorf("memo hits %d + misses %d + kernel patterns %d = %d, want %d (5 cells x %d distinct patterns)",
			hits, misses, kernel, hits+misses+kernel, want, distinct)
	}
	if rep.Counters["engine.realizations"] != int64(5*realizations) {
		t.Errorf("engine.realizations = %d", rep.Counters["engine.realizations"])
	}
	if rep.Counters["analysis.cells"] != 5 {
		t.Errorf("analysis.cells = %d, want 5", rep.Counters["analysis.cells"])
	}
	if rep.Counters["engine.foreach_workers"] < 1 {
		t.Errorf("engine.foreach_workers = %d", rep.Counters["engine.foreach_workers"])
	}
	if h, ok := rep.Histogram["engine.tasks_per_worker"]; !ok || h.Count == 0 {
		t.Error("tasks_per_worker histogram missing")
	}

	// Per-figure tallies must match the sequential reference on the
	// same ensemble.
	var results struct {
		Realizations int           `json:"realizations"`
		Figures      []figureTally `json:"figures"`
	}
	resBytes, err := json.Marshal(rep.Results)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resBytes, &results); err != nil {
		t.Fatal(err)
	}
	if results.Realizations != realizations {
		t.Fatalf("results.realizations = %d", results.Realizations)
	}
	if len(results.Figures) != 5 {
		t.Fatalf("tallies = %d rows, want 5 (one per configuration)", len(results.Figures))
	}

	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), oahuassets.Oahu())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hazard.OahuScenario()
	cfg.Realizations = realizations
	ensemble, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := analysis.FigureByID(9)
	if err != nil {
		t.Fatal(err)
	}
	configs, err := topology.StandardConfigs(fig.Placement)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.RunConfigsSequential(ensemble, configs, fig.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range want {
		got := results.Figures[i]
		if got.Figure != 9 || got.Config != o.Config.Name || got.Total != o.Profile.Total() {
			t.Errorf("tally[%d] = %+v, want config %s total %d", i, got, o.Config.Name, o.Profile.Total())
			continue
		}
		for _, s := range opstate.States() {
			if got.States[s.String()] != o.Profile.Count(s) {
				t.Errorf("tally[%d] %s %s = %d, want %d (sequential reference)",
					i, got.Config, s, got.States[s.String()], o.Profile.Count(s))
			}
		}
	}
}
