// Package analysis is the paper's primary contribution: the
// data-centric compound-threat analysis pipeline of Figure 5.
//
// For every hurricane realization in an ensemble, the pipeline derives
// the post-natural-disaster system state (which control sites are
// flooded), applies the worst-case cyberattack for the chosen threat
// scenario, evaluates the resulting operational state (Table I), and
// aggregates outcome probabilities over the ensemble.
//
// Two execution paths produce bit-identical results. The default path
// compiles the ensemble into a bit-packed failure matrix, deduplicates
// its rows, and evaluates every cell through the allocation-free,
// parallel engine's entry point (engine.Cells); the
// *Sequential functions are the straightforward reference
// implementations that the engine is cross-checked against in tests.
package analysis

import (
	"context"
	"errors"
	"fmt"

	"compoundthreat/internal/attack"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// DisasterEnsemble is the disaster-agnostic view of a realization
// ensemble: the analysis pipeline only needs to know, per realization,
// which assets the disaster took out. hazard.Ensemble (hurricanes) and
// seismic.Ensemble (earthquakes) both satisfy it. Implementations must
// be safe for concurrent readers (every ensemble in this module is:
// they are immutable after generation); those that also provide
// engine.VectorAppender get an allocation-free compile path.
type DisasterEnsemble interface {
	// Size returns the number of realizations.
	Size() int
	// FailureVector returns, for realization r, the failed flags for
	// the given asset IDs in order.
	FailureVector(r int, assetIDs []string) ([]bool, error)
	// FailureRate returns the fraction of realizations in which the
	// asset fails.
	FailureRate(assetID string) (float64, error)
}

// Options tunes how the analysis engine schedules work. Cells are
// always evaluated over the row-deduplicated matrix through the
// engine's entry point (engine.Cells); only parallelism is tunable.
type Options struct {
	// Workers bounds parallelism: 0 (the default) uses
	// runtime.NumCPU(); 1 runs single-threaded (still on the
	// allocation-free engine path).
	Workers int
}

// Outcome is the result of analyzing one configuration under one
// threat scenario.
type Outcome struct {
	// Config is the analyzed SCADA configuration.
	Config topology.Config
	// Scenario is the threat scenario applied.
	Scenario threat.Scenario
	// Profile is the distribution of operational states over the
	// ensemble.
	Profile *stats.Profile
}

// siteAssets returns the configuration's site asset IDs in order.
func siteAssets(cfg topology.Config) []string {
	out := make([]string, len(cfg.Sites))
	for i, s := range cfg.Sites {
		out[i] = s.AssetID
	}
	return out
}

// validateCell checks the shared preconditions of every analysis entry
// point.
func validateCell(e DisasterEnsemble, cfg topology.Config, scenario threat.Scenario) error {
	if e == nil {
		return errors.New("analysis: nil ensemble")
	}
	if !scenario.Valid() {
		return fmt.Errorf("analysis: invalid scenario %d", int(scenario))
	}
	return cfg.Validate()
}

// Run analyzes one configuration under one scenario across the whole
// ensemble on the engine path, parallelizing realization chunks across
// runtime.NumCPU() workers. Results are bit-identical to
// RunSequential.
func Run(e DisasterEnsemble, cfg topology.Config, scenario threat.Scenario) (Outcome, error) {
	return RunOpt(e, cfg, scenario, Options{})
}

// RunOpt is Run with an explicit worker bound.
func RunOpt(e DisasterEnsemble, cfg topology.Config, scenario threat.Scenario, opt Options) (Outcome, error) {
	if err := validateCell(e, cfg, scenario); err != nil {
		return Outcome{}, err
	}
	v, err := compileView(e, siteAssets(cfg), opt)
	if err != nil {
		return Outcome{}, fmt.Errorf("analysis: %s: %w", cfg.Name, err)
	}
	return runCell(v, cfg, scenario, opt.Workers)
}

// compileView compiles the ensemble's failure flags for the given
// assets and compresses the rows to distinct patterns once, so every
// subsequent cell is O(distinct rows) through the engine's evaluation
// entry point.
func compileView(e DisasterEnsemble, assetIDs []string, opt Options) (*engine.Cells, error) {
	m, err := engine.NewFailureMatrix(e, assetIDs)
	if err != nil {
		return nil, err
	}
	return engine.NewCells(engine.Compress(m, opt.Workers)), nil
}

// runCell evaluates one (config, scenario) cell against a compiled
// view, splitting its distinct rows across up to workers goroutines.
func runCell(v *engine.Cells, cfg topology.Config, scenario threat.Scenario, workers int) (Outcome, error) {
	obs.Default().Counter("analysis.cells").Add(1)
	counts, err := v.Counts(cfg, scenario.Capability(), workers)
	if err != nil {
		return Outcome{}, fmt.Errorf("analysis: %s: %w", cfg.Name, err)
	}
	return Outcome{Config: cfg, Scenario: scenario, Profile: counts.Profile()}, nil
}

// RunSequential is the reference implementation of Run: a plain
// realization loop with per-call allocations. The engine path is
// cross-checked against it in tests; it is also the baseline the
// BenchmarkFigure* speedups are measured from.
func RunSequential(e DisasterEnsemble, cfg topology.Config, scenario threat.Scenario) (Outcome, error) {
	if err := validateCell(e, cfg, scenario); err != nil {
		return Outcome{}, err
	}
	assets := siteAssets(cfg)
	cap := scenario.Capability()
	profile := stats.NewProfile()
	for r := 0; r < e.Size(); r++ {
		flooded, err := e.FailureVector(r, assets)
		if err != nil {
			return Outcome{}, fmt.Errorf("analysis: %s realization %d: %w", cfg.Name, r, err)
		}
		res, err := attack.WorstCase(cfg, flooded, cap)
		if err != nil {
			return Outcome{}, fmt.Errorf("analysis: %s realization %d: %w", cfg.Name, r, err)
		}
		profile.Add(res.State)
	}
	return Outcome{Config: cfg, Scenario: scenario, Profile: profile}, nil
}

// assetUniverse validates every configuration and returns the union
// of their site assets in first-occurrence order.
func assetUniverse(configs []topology.Config) ([]string, error) {
	var universe []string
	seen := make(map[string]bool)
	for _, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		for _, s := range cfg.Sites {
			if !seen[s.AssetID] {
				seen[s.AssetID] = true
				universe = append(universe, s.AssetID)
			}
		}
	}
	return universe, nil
}

// compileUniverse compiles one failure matrix over the union of the
// configurations' site assets (each configuration resolves its own
// column subset at evaluation time), then compresses it.
// One compile + one compression serve every (config, scenario) cell.
// Compilation stays sequential (it touches the ensemble through its
// interface); evaluation afterwards reads only the immutable view and
// parallelizes freely.
func compileUniverse(e DisasterEnsemble, configs []topology.Config, opt Options) (*engine.Cells, error) {
	defer obs.Default().StartSpan("analysis.compile_matrices").End()
	universe, err := assetUniverse(configs)
	if err != nil {
		return nil, err
	}
	v, err := compileView(e, universe, opt)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return v, nil
}

// RunConfigs analyzes several configurations under one scenario,
// evaluating the (config) cells in parallel.
func RunConfigs(e DisasterEnsemble, configs []topology.Config, scenario threat.Scenario) ([]Outcome, error) {
	return RunConfigsOpt(e, configs, scenario, Options{})
}

// RunConfigsOpt is RunConfigs with an explicit worker bound.
func RunConfigsOpt(e DisasterEnsemble, configs []topology.Config, scenario threat.Scenario, opt Options) ([]Outcome, error) {
	return RunConfigsCtx(context.Background(), e, configs, scenario, opt)
}

// RunConfigsCtx is RunConfigsOpt with request-scoped tracing: when ctx
// carries a trace span (obs.SpanFromContext), the compile and the
// parallel cell sweep are recorded as child spans. The context does
// not cancel the computation; it only carries the trace.
func RunConfigsCtx(ctx context.Context, e DisasterEnsemble, configs []topology.Config, scenario threat.Scenario, opt Options) ([]Outcome, error) {
	if len(configs) == 0 {
		return nil, errors.New("analysis: no configurations")
	}
	if e == nil {
		return nil, errors.New("analysis: nil ensemble")
	}
	if !scenario.Valid() {
		return nil, fmt.Errorf("analysis: invalid scenario %d", int(scenario))
	}
	csp := obs.SpanFromContext(ctx).StartChild("analysis.compile")
	v, err := compileUniverse(e, configs, opt)
	csp.End()
	if err != nil {
		return nil, err
	}
	defer obs.Default().StartSpan("analysis.run_configs").End()
	out := make([]Outcome, len(configs))
	err = engine.ForEachCtx(ctx, opt.Workers, len(configs), func(i int) error {
		o, err := runCell(v, configs[i], scenario, 1)
		if err != nil {
			return err
		}
		out[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunConfigsSequential is the reference implementation of RunConfigs.
func RunConfigsSequential(e DisasterEnsemble, configs []topology.Config, scenario threat.Scenario) ([]Outcome, error) {
	if len(configs) == 0 {
		return nil, errors.New("analysis: no configurations")
	}
	out := make([]Outcome, 0, len(configs))
	for _, cfg := range configs {
		o, err := RunSequential(e, cfg, scenario)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// RunMatrix analyzes every configuration under every scenario,
// returning results keyed by scenario in the paper's presentation
// order. All (config, scenario) cells are evaluated in parallel
// against per-config failure matrices compiled once.
func RunMatrix(e DisasterEnsemble, configs []topology.Config) (map[threat.Scenario][]Outcome, error) {
	return RunMatrixOpt(e, configs, Options{})
}

// RunMatrixOpt is RunMatrix with an explicit worker bound.
func RunMatrixOpt(e DisasterEnsemble, configs []topology.Config, opt Options) (map[threat.Scenario][]Outcome, error) {
	return RunMatrixCtx(context.Background(), e, configs, opt)
}

// RunMatrixCtx is RunMatrixOpt with request-scoped tracing, mirroring
// RunConfigsCtx: the compile and the (config, scenario) cell sweep
// become child spans of any trace span carried by ctx.
func RunMatrixCtx(ctx context.Context, e DisasterEnsemble, configs []topology.Config, opt Options) (map[threat.Scenario][]Outcome, error) {
	if len(configs) == 0 {
		return nil, errors.New("analysis: no configurations")
	}
	if e == nil {
		return nil, errors.New("analysis: nil ensemble")
	}
	csp := obs.SpanFromContext(ctx).StartChild("analysis.compile")
	v, err := compileUniverse(e, configs, opt)
	csp.End()
	if err != nil {
		return nil, err
	}
	defer obs.Default().StartSpan("analysis.run_matrix").End()
	scenarios := threat.Scenarios()
	cells := make([]Outcome, len(scenarios)*len(configs))
	err = engine.ForEachCtx(ctx, opt.Workers, len(cells), func(k int) error {
		si, ci := k/len(configs), k%len(configs)
		o, err := runCell(v, configs[ci], scenarios[si], 1)
		if err != nil {
			return err
		}
		cells[k] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[threat.Scenario][]Outcome, len(scenarios))
	for si, sc := range scenarios {
		out[sc] = cells[si*len(configs) : (si+1)*len(configs)]
	}
	return out, nil
}

// RunMatrixSequential is the reference implementation of RunMatrix.
func RunMatrixSequential(e DisasterEnsemble, configs []topology.Config) (map[threat.Scenario][]Outcome, error) {
	out := make(map[threat.Scenario][]Outcome, len(threat.Scenarios()))
	for _, sc := range threat.Scenarios() {
		res, err := RunConfigsSequential(e, configs, sc)
		if err != nil {
			return nil, err
		}
		out[sc] = res
	}
	return out, nil
}

// SiteFailureProbability returns the fraction of realizations in which
// the asset hosting a site floods — the per-site disaster marginal the
// discussion in §VI-A is built on.
func SiteFailureProbability(e DisasterEnsemble, assetID string) (float64, error) {
	if e == nil {
		return 0, errors.New("analysis: nil ensemble")
	}
	return e.FailureRate(assetID)
}

// StateProbabilities flattens an outcome into per-state probabilities
// in severity order (green, orange, red, gray).
func StateProbabilities(o Outcome) []float64 {
	out := make([]float64, 0, 4)
	for _, s := range opstate.States() {
		out = append(out, o.Profile.Probability(s))
	}
	return out
}

// failureVectorInto fills dst (reusing its capacity) with the failure
// flags of realization r, preferring the ensemble's allocation-free
// append path when it has one.
func failureVectorInto(e DisasterEnsemble, dst []bool, r int, assetIDs []string) ([]bool, error) {
	if ap, ok := e.(engine.VectorAppender); ok {
		return ap.AppendFailureVector(dst[:0], r, assetIDs)
	}
	return e.FailureVector(r, assetIDs)
}
