package serve

// Async ensemble-generation jobs, one kind on the job machine in
// jobs.go. A small Monte-Carlo run could answer inline, but generation
// cost scales with realizations × assets, so POST /v1/ensembles always
// submits a job and returns 202 with an id; GET /v1/ensembles/jobs/{id}
// polls status and live realization progress (wired off hazard's
// per-realization counter via EnsembleConfig.Progress). Identical
// submissions coalesce by scenario content id and each job runs under
// its own "ensemble.generate" trace. On success the job commits: the
// ensemble blob persists to the store (when configured), the client's
// quota is charged, and the ensemble registers under "u-<scenario id>"
// for every read endpoint.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
)

// generationSpec is one submitted generation run. Its content key is
// the scenario id, its progress the realizations generated so far and
// its result the generated ensemble's asset count.
type generationSpec struct {
	ensName    string
	topologyID string
	total      int // requested realizations
}

type (
	ensembleJob  = job[generationSpec, int, int]
	ensembleJobs = jobs[generationSpec, int, int]
)

func newEnsembleJobs(retention int) *ensembleJobs {
	return newJobs[generationSpec, int, int]("serve.genjobs", "ensemble.generate", retention)
}

// ---- POST /v1/ensembles ----

func (s *Server) handleEnsembleSubmit(w http.ResponseWriter, r *http.Request) error {
	if s.closed.Load() {
		return errShuttingDown()
	}
	data, err := s.readUploadBody(w, r)
	if err != nil {
		return err
	}
	p, err := decodeEnsembleParams(data, s.opt)
	if err != nil {
		return err
	}
	topo, ok := s.uploads.topology(p.topologyID)
	if !ok {
		return validationFailedf("unknown topology %q (upload it first via POST /v1/topologies)", p.topologyID)
	}
	spec := generationSpec{ensName: uploadedEnsembleName(p.scenarioID), topologyID: p.topologyID, total: p.cfg.Realizations}
	if ent, err := s.ensemble(spec.ensName); err == nil {
		// Already generated (this process or a warm restart): answer
		// done immediately, with a pollable synthetic job.
		j := s.genjobs.ensureDone(p.scenarioID, spec, spec.total, len(ent.assets))
		return writeJobSubmitted(w, r, http.StatusOK, "/v1/ensembles/jobs/", j, true, genSubmitFields(j))
	}
	client := clientKey(r)
	if err := s.uploads.headroom(client); err != nil {
		return err
	}
	j, coalesced, err := s.genjobs.submit(p.scenarioID, spec, obs.TraceFromContext(r.Context()).ID(), func(j *ensembleJob) {
		cfg := p.cfg
		cfg.Workers = s.opt.Workers
		cfg.Progress = func(done, _ int) { j.setProgress(done) }
		startJob(s, s.genjobs, j, func(ctx context.Context, release func()) (int, error) {
			e, err := topo.gen.GenerateCtx(ctx, cfg)
			release() // the commit below is I/O, not evaluation
			if err != nil {
				return 0, err
			}
			// Progress callbacks race each other; pin the final count.
			j.setProgress(cfg.Realizations)
			return len(e.AssetIDs()), s.commitEnsemble(j, e, client)
		})
	})
	if err != nil {
		return err
	}
	return writeJobSubmitted(w, r, http.StatusAccepted, "/v1/ensembles/jobs/", j, coalesced, genSubmitFields(j))
}

func genSubmitFields(j *ensembleJob) map[string]any {
	return map[string]any{
		"ensemble":     j.spec.ensName,
		"topology":     j.spec.topologyID,
		"realizations": j.spec.total,
	}
}

// commitEnsemble persists, charges, and registers one generated
// ensemble. Any error fails the job; the coalescing index is released
// by finish so a resubmission retries.
func (s *Server) commitEnsemble(j *ensembleJob, e *hazard.Ensemble, client string) error {
	var blob bytes.Buffer
	if err := e.WriteJSON(&blob); err != nil {
		return fmt.Errorf("encoding ensemble: %w", err)
	}
	if err := s.uploads.charge(client, 1, int64(blob.Len())); err != nil {
		return err
	}
	if st := s.opt.Store; st != nil {
		if _, err := st.Put("ensemble", j.key, blob.Bytes()); err != nil {
			return fmt.Errorf("persisting ensemble: %w", err)
		}
	}
	hash, err := strconv.ParseUint(j.key, 16, 64)
	if err != nil {
		return fmt.Errorf("scenario id %q not a fingerprint: %w", j.key, err)
	}
	return s.registerEnsemble(j.spec.ensName, e, hash)
}

// ---- GET /v1/ensembles/jobs/{id} ----

func (s *Server) handleEnsembleJob(w http.ResponseWriter, r *http.Request) error {
	return writeJobPoll(w, r, s.genjobs, func(out map[string]any, j *ensembleJob, state string, doneReal, assetCount int) {
		out["ensemble"] = j.spec.ensName
		out["topology"] = j.spec.topologyID
		out["progress"] = map[string]any{
			"realizations_done": doneReal,
			"realizations":      j.spec.total,
		}
		if state == jobDone {
			out["result"] = map[string]any{
				"ensemble":     j.spec.ensName,
				"fingerprint":  j.key,
				"realizations": j.spec.total,
				"assets":       assetCount,
			}
		}
	})
}

// ---- envelope ----

// generationWire is the generation payload of a job envelope.
type generationWire struct {
	Topology         string `json:"topology"`
	Realizations     int    `json:"realizations"`
	RealizationsDone int    `json:"realizations_done"`
	Assets           int    `json:"assets"`
}

func (sp generationSpec) wire(env *jobEnvelope, doneReal, assetCount int) bool {
	env.Kind, env.Ensemble = generationKind, sp.ensName
	env.Generation = &generationWire{
		Topology:         sp.topologyID,
		Realizations:     sp.total,
		RealizationsDone: doneReal,
		Assets:           assetCount,
	}
	return true
}

// generationFromEnvelope reconstructs a pollable done generation job.
// The key must be a scenario id and the ensemble its "u-" name, so an
// importer can check the ensemble is loaded before answering for it.
func generationFromEnvelope(env jobEnvelope) (*ensembleJob, error) {
	if err := checkEnvelope(env, generationKind); err != nil {
		return nil, err
	}
	if _, err := strconv.ParseUint(env.Key, 16, 64); err != nil || len(env.Key) != 16 {
		return nil, fmt.Errorf("generation job key %q is not a scenario id", env.Key)
	}
	if env.Ensemble != uploadedEnsembleName(env.Key) {
		return nil, fmt.Errorf("generation job ensemble %q does not match key %q", env.Ensemble, env.Key)
	}
	g := env.Generation
	if g.Realizations <= 0 || g.RealizationsDone < 0 || g.Assets < 0 {
		return nil, errors.New("generation job envelope has negative or empty counts")
	}
	spec := generationSpec{ensName: env.Ensemble, topologyID: g.Topology, total: g.Realizations}
	return doneJob(env.ID, env.Key, spec, time.Unix(0, env.CreatedUnixNano), g.RealizationsDone, g.Assets), nil
}
