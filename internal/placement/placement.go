// Package placement answers the paper's §VII future-work question:
// how should control-site locations be chosen to maximize availability
// under compound threats? It searches candidate placements (assets
// flagged as control-site candidates) and ranks them by the resulting
// operational-state profile, reproducing the paper's Waiau-to-Kahe
// finding and generalizing it to full placement search.
//
// The search compiles the ensemble's failure flags for the whole
// candidate universe into one bit-packed matrix and evaluates the
// candidate placements in parallel against it, instead of re-walking
// the full ensemble once per candidate pair. SearchPairsSequential and
// SearchSecondSiteSequential are the plain reference implementations
// the fast path is cross-checked against in tests.
package placement

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Objective scores an outcome profile; higher is better.
type Objective func(o analysis.Outcome) float64

// GreenProbability scores by the probability of full operation.
func GreenProbability(o analysis.Outcome) float64 {
	return o.Profile.Probability(opstate.Green)
}

// AvailabilityWeighted scores green as 1, orange as a partial credit
// (service restored after a bounded delay), red and gray as 0.
func AvailabilityWeighted(o analysis.Outcome) float64 {
	return o.Profile.Probability(opstate.Green) + 0.5*o.Profile.Probability(opstate.Orange)
}

// Candidate is one evaluated placement.
type Candidate struct {
	Placement topology.Placement
	// Score is the objective value of the evaluated configuration.
	Score float64
	// Outcome is the full profile backing the score.
	Outcome analysis.Outcome
}

// Request parameterizes a placement search.
type Request struct {
	// Ensemble is the disaster realization ensemble.
	Ensemble analysis.DisasterEnsemble
	// Inventory restricts candidates to its control-site-candidate
	// assets.
	Inventory *assets.Inventory
	// Primary fixes the primary control center (the utility's existing
	// site); the search varies the second site and data center.
	Primary string
	// Scenario is the threat scenario to optimize for.
	Scenario threat.Scenario
	// Objective scores outcomes (nil = GreenProbability).
	Objective Objective
	// Build maps a placement to the configuration under study
	// (nil = the "6+6+6" configuration). Every built configuration is
	// validated before the search compiles anything.
	Build func(topology.Placement) topology.Config
	// Workers bounds parallelism across candidate placements
	// (0 = runtime.NumCPU()).
	Workers int
}

func (r *Request) setDefaults() {
	if r.Objective == nil {
		r.Objective = GreenProbability
	}
	if r.Build == nil {
		r.Build = func(p topology.Placement) topology.Config {
			return topology.NewConfig666(p.Primary, p.Second, p.DataCenter)
		}
	}
}

func (r *Request) validate() error {
	switch {
	case r.Ensemble == nil:
		return errors.New("placement: nil ensemble")
	case r.Inventory == nil:
		return errors.New("placement: nil inventory")
	case r.Primary == "":
		return errors.New("placement: primary site required")
	case !r.Scenario.Valid():
		return fmt.Errorf("placement: invalid scenario %d", int(r.Scenario))
	case r.Workers < 0:
		return errors.New("placement: negative workers")
	}
	if _, ok := r.Inventory.ByID(r.Primary); !ok {
		return fmt.Errorf("placement: unknown primary asset %q", r.Primary)
	}
	return nil
}

// CandidatePairs enumerates the (second site, data center) pairs that
// SearchPairs would evaluate for the request, in the same deterministic
// inventory order, without evaluating them. Callers that bring their
// own evaluation path (the serving layer evaluates candidates against
// a cached compressed matrix) reuse this enumeration so they rank
// exactly the candidate set the batch search does.
func CandidatePairs(req Request) ([]topology.Placement, error) {
	req.setDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	return pairPlacements(req), nil
}

// CandidateSecondSites is CandidatePairs with the data center fixed:
// the candidate set of SearchSecondSite.
func CandidateSecondSites(req Request, dataCenter string) ([]topology.Placement, error) {
	req.setDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	if _, ok := req.Inventory.ByID(dataCenter); !ok {
		return nil, fmt.Errorf("placement: unknown data center asset %q", dataCenter)
	}
	return secondSitePlacements(req, dataCenter), nil
}

// pairPlacements enumerates every (second site, data center) pair of
// control-site candidates in deterministic inventory order. The
// result slice is allocated once: k candidates distinct from the
// primary yield exactly k·(k−1) ordered pairs.
func pairPlacements(req Request) []topology.Placement {
	candidates := req.Inventory.ControlSiteCandidates()
	k := 0
	for _, c := range candidates {
		if c.ID != req.Primary {
			k++
		}
	}
	out := make([]topology.Placement, 0, k*(k-1))
	for _, second := range candidates {
		if second.ID == req.Primary {
			continue
		}
		for _, dc := range candidates {
			if dc.ID == req.Primary || dc.ID == second.ID {
				continue
			}
			out = append(out, topology.Placement{Primary: req.Primary, Second: second.ID, DataCenter: dc.ID})
		}
	}
	return out
}

// secondSitePlacements enumerates second-site candidates with the data
// center fixed. The result slice is allocated once at its exact size:
// every candidate except the primary and the fixed data center.
func secondSitePlacements(req Request, dataCenter string) []topology.Placement {
	candidates := req.Inventory.ControlSiteCandidates()
	k := 0
	for _, c := range candidates {
		if c.ID != req.Primary && c.ID != dataCenter {
			k++
		}
	}
	out := make([]topology.Placement, 0, k)
	for _, second := range candidates {
		if second.ID == req.Primary || second.ID == dataCenter {
			continue
		}
		out = append(out, topology.Placement{Primary: req.Primary, Second: second.ID, DataCenter: dataCenter})
	}
	return out
}

// SearchPairs evaluates every (second site, data center) pair of
// control-site candidates and returns candidates ranked best first
// (ties broken lexicographically for determinism). Candidates are
// evaluated in parallel against one failure matrix compiled over the
// whole candidate universe; results are bit-identical to
// SearchPairsSequential.
func SearchPairs(req Request) ([]Candidate, error) {
	req.setDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	return search(req, pairPlacements(req))
}

// SearchSecondSite holds the data center fixed and varies only the
// second control center — the exact comparison of the paper's §VII
// (Waiau vs Kahe with DRFortress fixed).
func SearchSecondSite(req Request, dataCenter string) ([]Candidate, error) {
	req.setDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	if _, ok := req.Inventory.ByID(dataCenter); !ok {
		return nil, fmt.Errorf("placement: unknown data center asset %q", dataCenter)
	}
	return search(req, secondSitePlacements(req, dataCenter))
}

// search evaluates the placements on the engine path: one compressed
// matrix over the union of every candidate configuration's site
// assets, then a parallel sweep over placements through the engine's
// evaluation entry point. For the default symmetric "6+6+6" family
// every cell is word-parallel popcount arithmetic against one shared
// outcome table.
func search(req Request, placements []topology.Placement) ([]Candidate, error) {
	if len(placements) == 0 {
		return nil, errors.New("placement: no candidate placements")
	}
	defer obs.Default().StartSpan("placement.search").End()
	obs.Default().Counter("placement.candidates").Add(int64(len(placements)))
	// Build and validate every configuration up front and collect the
	// site-asset universe, so the ensemble is compiled exactly once and
	// an invalid configuration fails before any work.
	configs := make([]topology.Config, len(placements))
	var universe []string
	seen := map[string]bool{}
	for i, p := range placements {
		configs[i] = req.Build(p)
		if err := configs[i].Validate(); err != nil {
			return nil, fmt.Errorf("placement: %s/%s: %w", p.Second, p.DataCenter, err)
		}
		for _, s := range configs[i].Sites {
			if !seen[s.AssetID] {
				seen[s.AssetID] = true
				universe = append(universe, s.AssetID)
			}
		}
	}
	m, err := engine.NewFailureMatrix(req.Ensemble, universe)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	cells := engine.NewCells(engine.Compress(m, req.Workers))
	capability := req.Scenario.Capability()
	out := make([]Candidate, len(placements))
	err = engine.ForEach(req.Workers, len(placements), func(i int) error {
		counts, err := cells.Counts(configs[i], capability, 1)
		if err != nil {
			return fmt.Errorf("placement: %s/%s: %w", placements[i].Second, placements[i].DataCenter, err)
		}
		outcome := analysis.Outcome{Config: configs[i], Scenario: req.Scenario, Profile: counts.Profile()}
		out[i] = Candidate{Placement: placements[i], Score: req.Objective(outcome), Outcome: outcome}
		return nil
	})
	if err != nil {
		return nil, err
	}
	Rank(out)
	return out, nil
}

// SearchPairsSequential is the reference implementation of
// SearchPairs: every candidate pair re-runs the full ensemble through
// analysis.RunSequential.
func SearchPairsSequential(req Request) ([]Candidate, error) {
	req.setDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	return searchSequential(req, pairPlacements(req))
}

// SearchSecondSiteSequential is the reference implementation of
// SearchSecondSite.
func SearchSecondSiteSequential(req Request, dataCenter string) ([]Candidate, error) {
	req.setDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	if _, ok := req.Inventory.ByID(dataCenter); !ok {
		return nil, fmt.Errorf("placement: unknown data center asset %q", dataCenter)
	}
	return searchSequential(req, secondSitePlacements(req, dataCenter))
}

func searchSequential(req Request, placements []topology.Placement) ([]Candidate, error) {
	if len(placements) == 0 {
		return nil, errors.New("placement: no candidate placements")
	}
	out := make([]Candidate, 0, len(placements))
	for _, p := range placements {
		cand, err := evaluateSequential(req, p)
		if err != nil {
			return nil, err
		}
		out = append(out, cand)
	}
	Rank(out)
	return out, nil
}

func evaluateSequential(req Request, p topology.Placement) (Candidate, error) {
	cfg := req.Build(p)
	outcome, err := analysis.RunSequential(req.Ensemble, cfg, req.Scenario)
	if err != nil {
		return Candidate{}, fmt.Errorf("placement: %s/%s: %w", p.Second, p.DataCenter, err)
	}
	return Candidate{
		Placement: p,
		Score:     req.Objective(outcome),
		Outcome:   outcome,
	}, nil
}

// Rank orders candidates best first under a stable, fully
// deterministic comparator: score descending, then second site
// ascending, then data center ascending. NaN scores sort after every
// real score (mutually tied, so the site tie-break orders them): an
// objective that misbehaves on one candidate degrades that candidate,
// not the whole ranking — NaN comparisons are always false, so a naive
// comparator would order NaN entries by input position. (Second,
// DataCenter) is unique per search, so the order is total and
// independent of both the input order and the sort algorithm;
// TestRankDeterministic and TestRankNaNSortsLast document the
// contract. It is exported so alternative evaluation paths (the
// serving layer) rank under the identical contract.
func Rank(out []Candidate) {
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].Score, out[j].Score
		if ni, nj := math.IsNaN(si), math.IsNaN(sj); ni || nj {
			if ni != nj {
				return nj // the real score sorts first
			}
			// Both NaN: tied; fall through to the site tie-break.
		} else if si != sj {
			return si > sj
		}
		if out[i].Placement.Second != out[j].Placement.Second {
			return out[i].Placement.Second < out[j].Placement.Second
		}
		return out[i].Placement.DataCenter < out[j].Placement.DataCenter
	})
}
