package analysis

import (
	"errors"
	"fmt"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Figure identifies one of the paper's evaluation figures.
type Figure struct {
	// ID is the paper's figure number (6-11).
	ID int
	// Title is the paper's caption.
	Title string
	// Placement binds the configurations to control-site assets.
	Placement topology.Placement
	// Scenario is the threat scenario.
	Scenario threat.Scenario
}

// PlacementHWD is the paper's default placement: Honolulu primary,
// Waiau backup/second, DRFortress data center.
func PlacementHWD() topology.Placement {
	return topology.Placement{
		Primary:    assets.HonoluluCC,
		Second:     assets.Waiau,
		DataCenter: assets.DRFortress,
	}
}

// PlacementHKD is the §VII alternative: Kahe replaces Waiau as the
// second control center.
func PlacementHKD() topology.Placement {
	return topology.Placement{
		Primary:    assets.HonoluluCC,
		Second:     assets.Kahe,
		DataCenter: assets.DRFortress,
	}
}

// PaperFigures returns the six evaluation figures of the paper.
func PaperFigures() []Figure {
	hwd, hkd := PlacementHWD(), PlacementHKD()
	return []Figure{
		{6, "Operational Profiles in Hurricane Scenario (Honolulu + Waiau + DRFortress)", hwd, threat.Hurricane},
		{7, "Operational Profiles in Hurricane + Server Intrusion Scenario (Honolulu + Waiau + DRFortress)", hwd, threat.HurricaneIntrusion},
		{8, "Operational Profiles in Hurricane + Site Isolation Scenario (Honolulu + Waiau + DRFortress)", hwd, threat.HurricaneIsolation},
		{9, "Operational Profiles in Hurricane + Server Intrusion + Site Isolation Scenario (Honolulu + Waiau + DRFortress)", hwd, threat.HurricaneIntrusionIsolation},
		{10, "Operational Profiles in Hurricane Scenario (Honolulu + Kahe + DRFortress)", hkd, threat.Hurricane},
		{11, "Operational Profiles in Hurricane + Server Intrusion Scenario (Honolulu + Kahe + DRFortress)", hkd, threat.HurricaneIntrusion},
	}
}

// FigureByID returns the paper figure with the given number.
func FigureByID(id int) (Figure, error) {
	for _, f := range PaperFigures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("analysis: no figure %d (paper figures are 6-11)", id)
}

// FigureResult is a fully evaluated figure.
type FigureResult struct {
	Figure   Figure
	Outcomes []Outcome
}

// CaseStudy bundles the Oahu ensemble with the machinery to evaluate
// paper figures against it. Generate it once and evaluate many figures.
type CaseStudy struct {
	ensemble *hazard.Ensemble
	workers  int
}

// NewCaseStudy wraps an existing ensemble.
func NewCaseStudy(e *hazard.Ensemble) (*CaseStudy, error) {
	if e == nil {
		return nil, errors.New("analysis: nil ensemble")
	}
	return &CaseStudy{ensemble: e}, nil
}

// SetWorkers bounds evaluation parallelism (0 = runtime.NumCPU()).
func (cs *CaseStudy) SetWorkers(n int) { cs.workers = n }

// options renders the case study's tuning knobs as engine Options.
func (cs *CaseStudy) options() Options {
	return Options{Workers: cs.workers}
}

// NewOahuCaseStudy builds the full Oahu case study: terrain, assets,
// surge solver, and the calibrated hurricane ensemble. realizations
// overrides the ensemble size when positive (the paper uses 1000).
func NewOahuCaseStudy(realizations int) (*CaseStudy, error) {
	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), assets.Oahu())
	if err != nil {
		return nil, err
	}
	cfg := hazard.OahuScenario()
	if realizations > 0 {
		cfg.Realizations = realizations
	}
	e, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &CaseStudy{ensemble: e}, nil
}

// Ensemble returns the underlying hazard ensemble.
func (cs *CaseStudy) Ensemble() *hazard.Ensemble { return cs.ensemble }

// EvaluateFigure runs the five standard configurations for the figure's
// placement and scenario.
func (cs *CaseStudy) EvaluateFigure(f Figure) (FigureResult, error) {
	defer obs.Default().StartSpan("analysis.figure").End()
	configs, err := topology.StandardConfigs(f.Placement)
	if err != nil {
		return FigureResult{}, err
	}
	outcomes, err := RunConfigsOpt(cs.ensemble, configs, f.Scenario, cs.options())
	if err != nil {
		return FigureResult{}, err
	}
	return FigureResult{Figure: f, Outcomes: outcomes}, nil
}

// EvaluateAllFigures evaluates every paper figure in order. The work
// is flattened to (figure, configuration) cells and evaluated in
// parallel against one failure matrix compiled over the union of the
// figures' site assets — compiled and compressed to its distinct rows
// exactly once and shared across every cell.
func (cs *CaseStudy) EvaluateAllFigures() ([]FigureResult, error) {
	defer obs.Default().StartSpan("analysis.all_figures").End()
	figs := PaperFigures()

	// Flatten figures into cells and collect every configuration so one
	// universe matrix serves the whole sweep (figures share placements,
	// and configurations within a placement share site subsets).
	type cell struct {
		fig int // index into figs
		cfg topology.Config
	}
	var cells []cell
	var allConfigs []topology.Config
	out := make([]FigureResult, len(figs))
	for fi, f := range figs {
		configs, err := topology.StandardConfigs(f.Placement)
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", f.ID, err)
		}
		out[fi] = FigureResult{Figure: f, Outcomes: make([]Outcome, len(configs))}
		for _, cfg := range configs {
			cells = append(cells, cell{fig: fi, cfg: cfg})
		}
		allConfigs = append(allConfigs, configs...)
	}
	v, err := compileUniverse(cs.ensemble, allConfigs, cs.options())
	if err != nil {
		return nil, err
	}

	// Position of each cell within its figure's outcome slice.
	pos := make([]int, len(cells))
	seen := make(map[int]int, len(figs))
	for i, c := range cells {
		pos[i] = seen[c.fig]
		seen[c.fig]++
	}

	err = engine.ForEach(cs.workers, len(cells), func(i int) error {
		c := cells[i]
		o, err := runCell(v, c.cfg, figs[c.fig].Scenario, 1)
		if err != nil {
			return fmt.Errorf("figure %d: %w", figs[c.fig].ID, err)
		}
		out[c.fig].Outcomes[pos[i]] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
