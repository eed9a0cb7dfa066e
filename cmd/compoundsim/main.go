// Command compoundsim runs the full Oahu compound-threat case study
// and regenerates the paper's evaluation figures (6-11) and Table I.
//
// Usage:
//
//	compoundsim [-fig N] [-realizations N] [-seed S] [-csv] [-table1]
//	            [-workers N] [-metrics report.json] [-pprof addr]
//
// Without -fig it evaluates every figure. -csv emits machine-readable
// rows instead of terminal tables. -workers bounds analysis
// parallelism (0 = one worker per CPU). -metrics writes a JSON run
// report (per-phase wall time, memo statistics, worker utilization,
// per-figure state tallies) on exit; -pprof serves net/http/pprof for
// the lifetime of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/report"
	"compoundthreat/internal/seismic"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// main delegates to run so deferred cleanup (metrics flush, pprof
// shutdown) executes before the process exits; os.Exit here would skip
// it.
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "compoundsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("compoundsim", flag.ContinueOnError)
	figID := fs.Int("fig", 0, "evaluate a single figure (6-11); 0 = all")
	realizations := fs.Int("realizations", 1000, "hurricane realizations")
	seed := fs.Int64("seed", 0, "ensemble seed override (0 = calibrated default)")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	table1 := fs.Bool("table1", false, "also print Table I")
	rates := fs.Bool("rates", false, "also print per-asset flood probabilities")
	power := fs.String("power", "", "run an attacker-power sweep for one configuration (e.g. 6-6) instead of figures")
	extended := fs.Bool("extended", false, "evaluate the extended configuration family (adds 4, 4-4, 3+3+3+3) instead of figures")
	downtime := fs.Bool("downtime", false, "report expected downtime per hurricane event instead of figures")
	summary := fs.Bool("summary", false, "print the dominant-state matrix instead of figures")
	quake := fs.Bool("quake", false, "use the earthquake hazard (south-flank fault) instead of the hurricane")
	fragilityBeta := fs.Float64("fragility", 0, "replace the 0.5 m threshold with a lognormal fragility curve of this dispersion (0 = off)")
	workers := fs.Int("workers", 0, "analysis worker bound (0 = one per CPU)")
	var ocli obs.CLI
	ocli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("negative workers %d", *workers)
	}
	if err := ocli.Start("compoundsim", args, os.Stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := ocli.Close(); err == nil {
			err = cerr
		}
	}()
	rec := ocli.Recorder()
	opt := analysis.Options{Workers: *workers}

	if *quake {
		return runQuake(*realizations, *seed, opt)
	}

	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), assets.Oahu())
	if err != nil {
		return err
	}
	cfg := hazard.OahuScenario()
	cfg.Realizations = *realizations
	if *seed != 0 {
		cfg.Seed = *seed
	}
	fmt.Fprintf(os.Stderr, "generating %d hurricane realizations...\n", cfg.Realizations)
	genSpan := rec.StartSpan("cli.generate_ensemble")
	ensemble, err := gen.Generate(cfg)
	genSpan.End()
	if err != nil {
		return err
	}
	rec.Put("realizations", cfg.Realizations)
	cs, err := analysis.NewCaseStudy(ensemble)
	if err != nil {
		return err
	}
	cs.SetWorkers(*workers)

	if *table1 {
		if err := report.WriteTableI(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if *rates {
		if err := printRates(ensemble); err != nil {
			return err
		}
		fmt.Println()
	}

	if *power != "" {
		return runPowerSweep(ensemble, *power, *csv, opt)
	}
	if *extended {
		return runExtended(ensemble, *csv, opt)
	}
	if *downtime {
		return runDowntime(ensemble)
	}
	if *summary {
		return runSummary(ensemble, opt)
	}
	if *fragilityBeta > 0 {
		return runFragility(ensemble, *fragilityBeta, opt)
	}

	figures := analysis.PaperFigures()
	if *figID != 0 {
		f, err := analysis.FigureByID(*figID)
		if err != nil {
			return err
		}
		figures = []analysis.Figure{f}
	}
	var tallies []figureTally
	for _, f := range figures {
		start := time.Now()
		res, err := cs.EvaluateFigure(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "figure %d evaluated in %v\n", f.ID, time.Since(start).Round(time.Microsecond))
		if rec != nil {
			tallies = append(tallies, tallyFigure(res)...)
		}
		if *csv {
			if err := report.WriteFigureCSV(os.Stdout, res); err != nil {
				return err
			}
			continue
		}
		if err := report.WriteFigure(os.Stdout, res); err != nil {
			return err
		}
		fmt.Println()
	}
	rec.Put("figures", tallies)
	return nil
}

// figureTally is the run report's record of one (figure,
// configuration) cell: raw operational-state counts over the
// ensemble, so the reproduced paper numbers travel with the
// performance profile of the run that produced them.
type figureTally struct {
	Figure   int            `json:"figure"`
	Config   string         `json:"config"`
	Scenario string         `json:"scenario"`
	Total    int            `json:"total"`
	States   map[string]int `json:"states"`
}

// tallyFigure flattens a figure result into report rows.
func tallyFigure(res analysis.FigureResult) []figureTally {
	out := make([]figureTally, 0, len(res.Outcomes))
	for _, o := range res.Outcomes {
		states := make(map[string]int)
		for _, s := range opstate.States() {
			if n := o.Profile.Count(s); n > 0 {
				states[s.String()] = n
			}
		}
		out = append(out, figureTally{
			Figure:   res.Figure.ID,
			Config:   o.Config.Name,
			Scenario: o.Scenario.String(),
			Total:    o.Profile.Total(),
			States:   states,
		})
	}
	return out
}

// runExtended evaluates the extended configuration family (Babay et
// al.'s wider architecture set) under every threat scenario, with
// AlohaNAP as the second data center of "3+3+3+3".
func runExtended(e *hazard.Ensemble, csv bool, opt analysis.Options) error {
	configs, err := topology.ExtendedConfigs(topology.ExtendedPlacement{
		Placement: topology.Placement{
			Primary:    assets.HonoluluCC,
			Second:     assets.Kahe,
			DataCenter: assets.DRFortress,
		},
		SecondDataCenter: assets.AlohaNAP,
	})
	if err != nil {
		return err
	}
	for fi, scenario := range threat.Scenarios() {
		outcomes, err := analysis.RunConfigsOpt(e, configs, scenario, opt)
		if err != nil {
			return err
		}
		res := analysis.FigureResult{
			Figure: analysis.Figure{
				ID:       100 + fi,
				Title:    fmt.Sprintf("Extended Configurations, %s (Honolulu + Kahe + DRFortress + AlohaNAP)", scenario),
				Scenario: scenario,
			},
			Outcomes: outcomes,
		}
		if csv {
			if err := report.WriteFigureCSV(os.Stdout, res); err != nil {
				return err
			}
			continue
		}
		if err := report.WriteFigure(os.Stdout, res); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runFragility re-evaluates the summary matrix with a lognormal
// fragility curve (median at the paper's 0.5 m threshold) instead of
// the hard threshold, for sensitivity analysis on the failure
// criterion.
func runFragility(e *hazard.Ensemble, beta float64, opt analysis.Options) error {
	fe, err := hazard.NewFragilityEnsemble(e, hazard.Fragility{
		MedianMeters: e.Config().FloodThresholdMeters,
		Beta:         beta,
	}, nil, 1)
	if err != nil {
		return err
	}
	fr := report.FailureRates{Title: fmt.Sprintf("Per-asset failure probability (fragility beta=%.2f)", beta)}
	for _, id := range []string{
		assets.HonoluluCC, assets.Waiau, assets.Kahe, assets.DRFortress, assets.AlohaNAP,
	} {
		rate, err := fe.FailureRate(id)
		if err != nil {
			return err
		}
		fr.Rows = append(fr.Rows, report.FailureRate{AssetID: id, Probability: rate})
	}
	if err := report.WriteFailureRates(os.Stdout, fr); err != nil {
		return err
	}
	fmt.Println()
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary:    assets.HonoluluCC,
		Second:     assets.Waiau,
		DataCenter: assets.DRFortress,
	})
	if err != nil {
		return err
	}
	matrix, err := analysis.RunMatrixOpt(fe, configs, opt)
	if err != nil {
		return err
	}
	return report.WriteMatrix(os.Stdout, matrix)
}

// runQuake runs the compound-threat analysis on the earthquake hazard:
// per-asset failure rates and the dominant-state matrix, for both
// placements. Earthquakes correlate failures by distance from the
// fault, not by shore exposure, so the hurricane-safe Kahe placement
// is no longer automatically safe.
func runQuake(realizations int, seed int64, opt analysis.Options) error {
	inv := assets.Oahu()
	cfg := seismic.OahuScenario()
	cfg.Realizations = realizations
	if seed != 0 {
		cfg.Seed = seed
	}
	fmt.Fprintf(os.Stderr, "generating %d earthquake realizations...\n", cfg.Realizations)
	ensemble, err := seismic.Generate(cfg, inv)
	if err != nil {
		return err
	}
	fr := report.FailureRates{Title: "Per-asset earthquake failure probability"}
	for _, id := range []string{
		assets.HonoluluCC, assets.Waiau, assets.Kahe, assets.DRFortress, assets.AlohaNAP,
	} {
		rate, err := ensemble.FailureRate(id)
		if err != nil {
			return err
		}
		fr.Rows = append(fr.Rows, report.FailureRate{AssetID: id, Probability: rate})
	}
	if err := report.WriteFailureRates(os.Stdout, fr); err != nil {
		return err
	}
	fmt.Println()
	for _, placement := range []topology.Placement{
		{Primary: assets.HonoluluCC, Second: assets.Waiau, DataCenter: assets.DRFortress},
		{Primary: assets.HonoluluCC, Second: assets.Kahe, DataCenter: assets.DRFortress},
	} {
		configs, err := topology.StandardConfigs(placement)
		if err != nil {
			return err
		}
		matrix, err := analysis.RunMatrixOpt(ensemble, configs, opt)
		if err != nil {
			return err
		}
		fmt.Printf("placement: %s + %s + %s\n", placement.Primary, placement.Second, placement.DataCenter)
		if err := report.WriteMatrix(os.Stdout, matrix); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runSummary prints the dominant-state matrix across configurations
// and scenarios.
func runSummary(e *hazard.Ensemble, opt analysis.Options) error {
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary:    assets.HonoluluCC,
		Second:     assets.Waiau,
		DataCenter: assets.DRFortress,
	})
	if err != nil {
		return err
	}
	matrix, err := analysis.RunMatrixOpt(e, configs, opt)
	if err != nil {
		return err
	}
	return report.WriteMatrix(os.Stdout, matrix)
}

// runDowntime reports expected downtime per hurricane event for the
// standard configurations under every scenario.
func runDowntime(e *hazard.Ensemble) error {
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary:    assets.HonoluluCC,
		Second:     assets.Waiau,
		DataCenter: assets.DRFortress,
	})
	if err != nil {
		return err
	}
	model := analysis.DefaultDowntimeModel()
	for _, scenario := range threat.Scenarios() {
		outcomes, err := analysis.RunDowntimeConfigs(e, configs, scenario, model)
		if err != nil {
			return err
		}
		if err := report.WriteDowntime(os.Stdout, outcomes); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runPowerSweep traces the configuration's profile as attacker success
// probability grows (the paper's SVII realistic-attacker question).
func runPowerSweep(e *hazard.Ensemble, configName string, csv bool, opt analysis.Options) error {
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary:    assets.HonoluluCC,
		Second:     assets.Waiau,
		DataCenter: assets.DRFortress,
	})
	if err != nil {
		return err
	}
	var cfg topology.Config
	found := false
	for _, c := range configs {
		if c.Name == configName {
			cfg, found = c, true
		}
	}
	if !found {
		return fmt.Errorf("unknown configuration %q", configName)
	}
	points, err := analysis.RunPowerSweep(analysis.PowerSweepRequest{
		Ensemble:   e,
		Config:     cfg,
		Capability: threat.HurricaneIntrusionIsolation.Capability(),
		Successes:  []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1},
		Seed:       1,
		Workers:    opt.Workers,
	})
	if err != nil {
		return err
	}
	if csv {
		return report.WritePowerSweepCSV(os.Stdout, cfg.Name, points)
	}
	return report.WritePowerSweep(os.Stdout, cfg.Name, points)
}

func printRates(e *hazard.Ensemble) error {
	fr := report.FailureRates{}
	for _, id := range []string{
		assets.HonoluluCC, assets.Waiau, assets.Kahe, assets.DRFortress, assets.AlohaNAP,
	} {
		rate, err := e.FailureRate(id)
		if err != nil {
			return err
		}
		fr.Rows = append(fr.Rows, report.FailureRate{AssetID: id, Probability: rate})
	}
	return report.WriteFailureRates(os.Stdout, fr)
}
