package compoundthreat

// Compressed-path benchmarks: the deduplicated weighted sweeps that
// are the production evaluation path. The figure benchmarks have
// uncompressed engine references in bench_test.go
// (BenchmarkFigure9Workers, BenchmarkFigureAllEngine); the gap between
// the pairs is the dedup win. BENCH_3.json records the measured
// numbers and `make bench-check` gates these against it.

import (
	"testing"

	"compoundthreat/internal/analysis"
)

// BenchmarkCompressedFigure9 evaluates Figure 9 (the full compound
// threat) on the default compressed path at workers=1: compile the
// failure matrix, deduplicate its rows once, and sweep the five
// configurations over distinct flood patterns only. Compare against
// BenchmarkFigure9Workers/workers=1 for the dedup speedup.
func BenchmarkCompressedFigure9(b *testing.B) {
	cs := benchCaseStudy(b)
	fig, err := analysis.FigureByID(9)
	if err != nil {
		b.Fatal(err)
	}
	configs, err := StandardConfigs(fig.Placement)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := analysis.Options{Workers: 1}
		if _, err := analysis.RunConfigsOpt(cs.Ensemble(), configs, fig.Scenario, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressedAllFigures evaluates all six paper figures through
// the default EvaluateAllFigures path: one matrix over the union of
// every figure's site assets, compressed once, then 30 weighted cells.
// Compare against BenchmarkFigureAllEngine (the same universe matrix,
// uncompressed) for the dedup speedup.
func BenchmarkCompressedAllFigures(b *testing.B) {
	cs := benchCaseStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.EvaluateAllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressedSearchPairs runs the §VII pair search on the
// default compressed path: the candidate-universe matrix is
// deduplicated once and every one of the O(C²) pairs evaluates only
// distinct patterns through the engine's entry point (the
// word-parallel kernel for the symmetric "6+6+6" family).
func BenchmarkCompressedSearchPairs(b *testing.B) {
	cs := benchCaseStudy(b)
	req := PlacementRequest{
		Ensemble:  cs.Ensemble(),
		Inventory: OahuAssets(),
		Primary:   HonoluluCC,
		Scenario:  HurricaneIntrusionIsolation,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchPlacements(req); err != nil {
			b.Fatal(err)
		}
	}
}
