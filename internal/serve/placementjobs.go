package serve

// Async k-site placement search jobs, one kind on the job machine in
// jobs.go. A pair sweep answers within a request deadline; a k-site
// search over thousands of candidates does not, so POST
// /v1/placement/search submits a job and returns 202 with an id, and
// GET /v1/placement/jobs/{id} polls status, live progress (evaluated,
// pruned, current best), and the final result. The content key is the
// ensemble fingerprint plus the full search shape; each job runs under
// its own "placement.job" trace.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// placementSpec is one submitted k-site search.
type placementSpec struct {
	ensName  string
	scenario threat.Scenario
	objName  string
	k        int
	exact    bool
}

type (
	placementJob  = job[placementSpec, placement.KProgress, *placement.KResult]
	placementJobs = jobs[placementSpec, placement.KProgress, *placement.KResult]
)

func newPlacementJobs(retention int) *placementJobs {
	return newJobs[placementSpec, placement.KProgress, *placement.KResult]("serve.jobs", "placement.job", retention)
}

// ---- POST /v1/placement/search ----

// placementSearchRequest is the submit body.
type placementSearchRequest struct {
	Ensemble string `json:"ensemble"`
	Scenario string `json:"scenario"`
	K        int    `json:"k"`
	Exact    bool   `json:"exact"`
	// Objective is "green" (default) or "weighted".
	Objective string `json:"objective"`
	// Candidates overrides the candidate universe; empty = every
	// control-site candidate in the server's inventory.
	Candidates []string `json:"candidates"`
	// MaxCandidates rejects larger universes at submit when > 0.
	MaxCandidates int `json:"max_candidates"`
}

func (s *Server) handlePlacementSearch(w http.ResponseWriter, r *http.Request) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req placementSearchRequest
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("invalid request body: %v", err)
	}
	ens, err := s.ensemble(req.Ensemble)
	if err != nil {
		return err
	}
	scenario, err := parseScenario(req.Scenario)
	if err != nil {
		return err
	}
	objName, weights := "green", placement.GreenWeights
	switch req.Objective {
	case "", "green":
	case "weighted":
		objName, weights = "weighted", placement.AvailabilityWeights
	default:
		return badRequestf("unknown objective %q (want green or weighted)", req.Objective)
	}
	kreq := placement.KRequest{
		Ensemble:      ens.e,
		Inventory:     s.inv,
		Candidates:    req.Candidates,
		K:             req.K,
		Scenario:      scenario,
		Weights:       weights,
		Workers:       s.opt.Workers,
		Exact:         req.Exact,
		MaxCandidates: req.MaxCandidates,
	}
	// Validate synchronously: a malformed search fails this request,
	// never a job the client has to poll to see die.
	cands, err := kreq.Validate()
	if err != nil {
		return badRequestf("%v", err)
	}
	if err := ens.checkAssets(cands); err != nil {
		return err
	}
	kreq.Candidates = cands

	key := fmt.Sprintf("%016x|%s|%s|%d|%t|%d|%s",
		ens.hash, scenario, objName, req.K, req.Exact, req.MaxCandidates,
		strings.Join(cands, "\x1f"))
	spec := placementSpec{ensName: ens.name, scenario: scenario, objName: objName, k: req.K, exact: req.Exact}
	j, coalesced, err := s.jobs.submit(key, spec, obs.TraceFromContext(r.Context()).ID(), func(j *placementJob) {
		kreq.Progress = j.setProgress
		startJob(s, s.jobs, j, func(ctx context.Context, _ func()) (*placement.KResult, error) {
			return placement.SearchKCtx(ctx, kreq)
		})
	})
	if err != nil {
		return err
	}
	return writeJobSubmitted(w, r, http.StatusAccepted, "/v1/placement/jobs/", j, coalesced, map[string]any{
		"ensemble":  j.spec.ensName,
		"scenario":  j.spec.scenario.String(),
		"objective": j.spec.objName,
		"k":         j.spec.k,
		"exact":     j.spec.exact,
	})
}

// ---- GET /v1/placement/jobs/{id} ----

func (s *Server) handlePlacementJob(w http.ResponseWriter, r *http.Request) error {
	return writeJobPoll(w, r, s.jobs, func(out map[string]any, j *placementJob, _ string, progress placement.KProgress, result *placement.KResult) {
		out["ensemble"] = j.spec.ensName
		out["scenario"] = j.spec.scenario.String()
		out["objective"] = j.spec.objName
		out["k"] = j.spec.k
		out["exact"] = j.spec.exact
		out["progress"] = map[string]any{
			"phase":      progress.Phase,
			"evaluated":  progress.Evaluated,
			"pruned":     progress.Pruned,
			"best_score": progress.BestScore,
			"best_sites": progress.BestSites,
		}
		if result != nil {
			out["result"] = map[string]any{
				"sites":             result.Sites,
				"score":             result.Score,
				"evaluated":         result.Evaluated,
				"pruned":            result.Pruned,
				"exact":             result.Exact,
				"candidates":        result.Candidates,
				"distinct_patterns": result.DistinctPatterns,
				"outcome":           renderOutcome(result.Outcome.Config, j.spec.scenario, result.Outcome.Profile),
			}
		}
	})
}

// ---- envelope ----

// placementWire is the placement payload of a job envelope.
type placementWire struct {
	Scenario  string         `json:"scenario"`
	Objective string         `json:"objective"`
	K         int            `json:"k"`
	Exact     bool           `json:"exact"`
	Progress  jobProgressDTO `json:"progress"`
	Result    jobResultDTO   `json:"result"`
}

// jobResultDTO is the wire form of a placement.KResult.
type jobResultDTO struct {
	Sites            []string       `json:"sites"`
	Score            float64        `json:"score"`
	Evaluated        int64          `json:"evaluated"`
	Pruned           int64          `json:"pruned"`
	Exact            bool           `json:"exact"`
	Candidates       int            `json:"candidates"`
	DistinctPatterns int            `json:"distinct_patterns"`
	ConfigName       string         `json:"config_name"`
	Counts           map[string]int `json:"counts"`
}

// jobProgressDTO is the wire form of the final placement.KProgress
// snapshot, carried so the successor's poll response reports the same
// terminal progress the original worker would.
type jobProgressDTO struct {
	Phase     string   `json:"phase"`
	Evaluated int64    `json:"evaluated"`
	Pruned    int64    `json:"pruned"`
	BestScore float64  `json:"best_score"`
	BestSites []string `json:"best_sites,omitempty"`
}

func (sp placementSpec) wire(env *jobEnvelope, progress placement.KProgress, result *placement.KResult) bool {
	if result == nil {
		return false
	}
	counts := make(map[string]int, 4)
	for _, st := range opstate.States() {
		counts[st.String()] = result.Outcome.Profile.Count(st)
	}
	env.Kind, env.Ensemble = placementKind, sp.ensName
	env.Placement = &placementWire{
		Scenario:  scenarioWireName(sp.scenario),
		Objective: sp.objName,
		K:         sp.k,
		Exact:     sp.exact,
		Progress: jobProgressDTO{
			Phase:     progress.Phase,
			Evaluated: progress.Evaluated,
			Pruned:    progress.Pruned,
			BestScore: progress.BestScore,
			BestSites: progress.BestSites,
		},
		Result: jobResultDTO{
			Sites:            result.Sites,
			Score:            result.Score,
			Evaluated:        result.Evaluated,
			Pruned:           result.Pruned,
			Exact:            result.Exact,
			Candidates:       result.Candidates,
			DistinctPatterns: result.DistinctPatterns,
			ConfigName:       result.Outcome.Config.Name,
			Counts:           counts,
		},
	}
	return true
}

// scenarioWireName is the inverse of threat.ParseScenario: the request
// token for a scenario, so an exported envelope re-parses on import.
func scenarioWireName(s threat.Scenario) string {
	switch s {
	case threat.Hurricane:
		return "hurricane"
	case threat.HurricaneIntrusion:
		return "intrusion"
	case threat.HurricaneIsolation:
		return "isolation"
	default:
		return "both"
	}
}

// jobFromEnvelope reconstructs a pollable done placement job. The
// profile is rebuilt count-for-count, so the successor's poll response
// is bit-identical to the original worker's.
func jobFromEnvelope(env jobEnvelope) (*placementJob, error) {
	if err := checkEnvelope(env, placementKind); err != nil {
		return nil, err
	}
	p := env.Placement
	scenario, err := threat.ParseScenario(p.Scenario)
	if err != nil {
		return nil, err
	}
	profile := stats.NewProfile()
	for _, st := range opstate.States() {
		n := p.Result.Counts[st.String()]
		if n < 0 {
			return nil, fmt.Errorf("job envelope has negative count for state %s", st)
		}
		profile.AddN(st, n)
	}
	if len(p.Result.Sites) == 0 {
		return nil, errors.New("job envelope result names no sites")
	}
	cfg := topology.NewConfigKSite(p.Result.Sites)
	if p.Result.ConfigName != "" {
		cfg.Name = p.Result.ConfigName
	}
	spec := placementSpec{ensName: env.Ensemble, scenario: scenario, objName: p.Objective, k: p.K, exact: p.Exact}
	progress := placement.KProgress{
		Phase:     p.Progress.Phase,
		Evaluated: p.Progress.Evaluated,
		Pruned:    p.Progress.Pruned,
		BestScore: p.Progress.BestScore,
		BestSites: p.Progress.BestSites,
	}
	result := &placement.KResult{
		Sites:            p.Result.Sites,
		Score:            p.Result.Score,
		Outcome:          analysis.Outcome{Config: cfg, Scenario: scenario, Profile: profile},
		Evaluated:        p.Result.Evaluated,
		Pruned:           p.Result.Pruned,
		Exact:            p.Result.Exact,
		Candidates:       p.Result.Candidates,
		DistinctPatterns: p.Result.DistinctPatterns,
	}
	return doneJob(env.ID, env.Key, spec, time.Unix(0, env.CreatedUnixNano), progress, result), nil
}
