package serve

// The async-job machine. Work that outlives a request deadline — a
// k-site placement search (placementjobs.go), an ensemble generation
// (genjobs.go) — is submitted as a job: the submit request validates
// synchronously and answers 202 with an id, and a poll endpoint reports
// status, live progress and the final result.
//
// Every kind runs on the one machine here. Identical submissions
// coalesce onto one job by content key, and ids hash the key so a
// resubmission names the same job. A job runs under its own deadline
// and trace, holding one inflight evaluation slot so jobs and
// interactive queries share one work bound. Its state moves once,
// running → done/failed/canceled: the first finish wins. Failed and
// canceled jobs leave the coalescing index so a resubmission retries;
// done jobs stay coalescable as a result cache. Finished jobs stay
// pollable up to a per-kind retention bound, oldest evicted first.
// Close cancels running jobs, and done jobs travel to a successor in a
// versioned envelope (/v1/jobs/export, /v1/jobs/import, Handoff).
//
// A kind supplies only what differs: its submission spec S, progress
// value P and result R, what it runs, how it renders submit and poll
// bodies, and its envelope payload.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"compoundthreat/internal/obs"
)

// Job states as reported by the poll endpoints.
const (
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// JobTraceHeader carries a job's execution trace ID on submit and poll
// responses, so submit → run → poll is one navigable story: the client
// reads the header and fetches GET /v1/traces/{id} for the job run.
// The router forwards it verbatim.
const JobTraceHeader = "X-Job-Trace-Id"

// JobEnvelopeVersion is the version of the finished-job JSON envelope
// served by /v1/jobs/export and accepted by /v1/jobs/import. Only this
// version is accepted: version 1 had no kind field and carried
// placement jobs only.
const JobEnvelopeVersion = 2

// jobSpec is what a kind adds to a job: its immutable submission, and
// how a done job's progress and result render into the handoff
// envelope (false when the job is not exportable).
type jobSpec[P, R any] interface {
	wire(env *jobEnvelope, progress P, result R) bool
}

// job is one submitted unit of async work of spec S, reporting
// progress P and producing result R.
type job[S, P, R any] struct {
	id      string
	key     string
	spec    S
	created time.Time
	// traceID is the job execution's own trace ID ("" with tracing
	// off); submitTrace links back to the request that submitted the
	// job. Both are written once before the job is published.
	traceID     string
	submitTrace string

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    string
	progress P
	result   R
	err      error
}

// doneJob builds a finished job: a synthetic result for work that
// already exists, or one inherited through an envelope.
func doneJob[S, P, R any](id, key string, spec S, created time.Time, progress P, result R) *job[S, P, R] {
	j := &job[S, P, R]{
		id: id, key: key, spec: spec, created: created,
		done: make(chan struct{}), state: jobDone, progress: progress, result: result,
	}
	close(j.done)
	return j
}

func (j *job[S, P, R]) snapshot() (state string, progress P, result R, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.progress, j.result, j.err
}

// setProgress publishes live progress for polls.
func (j *job[S, P, R]) setProgress(p P) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// jobs is one kind's registry: it indexes jobs by id (polling) and by
// content key (coalescing), retains finished jobs up to a bound, and
// owns the shutdown handshake.
type jobs[S jobSpec[P, R], P, R any] struct {
	retention int
	trace     string // name of each job's execution trace

	mu       sync.Mutex
	byID     map[string]*job[S, P, R]
	byKey    map[string]*job[S, P, R]
	finished []*job[S, P, R] // eviction order, oldest first
	closed   bool

	submitted *obs.Counter
	coalesced *obs.Counter
	jdone     *obs.Counter
	jfailed   *obs.Counter
	jcanceled *obs.Counter
	running   *obs.Gauge
}

// newJobs registers the kind's instruments under the metric prefix
// (metrics+"_submitted", ...) and names job traces trace.
func newJobs[S jobSpec[P, R], P, R any](metrics, trace string, retention int) *jobs[S, P, R] {
	rec := obs.Default()
	return &jobs[S, P, R]{
		retention: retention,
		trace:     trace,
		byID:      make(map[string]*job[S, P, R]),
		byKey:     make(map[string]*job[S, P, R]),
		submitted: rec.Counter(metrics + "_submitted"),
		coalesced: rec.Counter(metrics + "_coalesced"),
		jdone:     rec.Counter(metrics + "_done"),
		jfailed:   rec.Counter(metrics + "_failed"),
		jcanceled: rec.Counter(metrics + "_canceled"),
		running:   rec.Gauge(metrics + "_running"),
	}
}

// errShuttingDown rejects submissions after Close.
func errShuttingDown() error {
	return &apiError{status: http.StatusServiceUnavailable, code: "shutting_down", message: "server is shutting down"}
}

// submit returns the job for key, creating a running one on first
// sight and handing it to start (which launches it). The bool reports
// whether the submission coalesced onto an existing job. start runs
// under the registry lock and must not block: that way the job's trace
// ID is written before any other request can see the job, and a runner
// that finishes at once cannot retire the job before it is indexed.
func (g *jobs[S, P, R]) submit(key string, spec S, submitTrace string, start func(*job[S, P, R])) (*job[S, P, R], bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, false, errShuttingDown()
	}
	if j, ok := g.byKey[key]; ok {
		g.coalesced.Inc()
		return j, true, nil
	}
	j := &job[S, P, R]{
		id: g.idLocked(key), key: key, spec: spec, created: time.Now(),
		submitTrace: submitTrace, done: make(chan struct{}), state: jobRunning,
	}
	start(j)
	g.byID[j.id] = j
	g.byKey[key] = j
	g.submitted.Inc()
	g.running.Inc()
	return j, false, nil
}

// idLocked derives the id for key. A different key already holding
// that id (astronomically unlikely) is resolved by re-hashing until
// free; the same key's earlier job hands its id on.
func (g *jobs[S, P, R]) idLocked(key string) string {
	id := jobID(key)
	for prev, taken := g.byID[id]; taken && prev.key != key; prev, taken = g.byID[id] {
		id = jobID(id)
	}
	return id
}

// jobID derives a stable id from the content key (FNV-1a, rendered as
// 16 hex digits), so resubmitting the same work names the same job.
func jobID(key string) string {
	h := uint64(fnv64Offset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnv64Prime
	}
	return fmt.Sprintf("%016x", h)
}

// get returns the job by id.
func (g *jobs[S, P, R]) get(id string) (*job[S, P, R], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.byID[id]
	return j, ok
}

// ensureDone returns the job key coalesces onto, or registers a
// synthetic finished one for work that already exists (a warm restart
// re-served it, or a previous process produced it), so resubmitting
// clients can poll a consistent job id.
func (g *jobs[S, P, R]) ensureDone(key string, spec S, progress P, result R) *job[S, P, R] {
	g.mu.Lock()
	defer g.mu.Unlock()
	if j, ok := g.byKey[key]; ok {
		return j
	}
	j := doneJob(g.idLocked(key), key, spec, time.Now(), progress, result)
	g.byID[j.id] = j
	g.byKey[key] = j
	g.retainLocked(j)
	return j
}

// finish records a job's terminal state. Idempotent: the first caller
// (the runner or the deadline watcher) wins. Failed and canceled jobs
// leave the coalescing index so identical resubmissions retry; done
// jobs stay coalescable as a result cache until retention evicts them.
func (g *jobs[S, P, R]) finish(j *job[S, P, R], res R, err error) {
	j.mu.Lock()
	if j.state != jobRunning {
		j.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		j.state, j.result = jobDone, res
	case errors.Is(err, context.Canceled):
		j.state, j.err = jobCanceled, err
	default:
		j.state, j.err = jobFailed, err
	}
	state := j.state
	j.mu.Unlock()
	close(j.done)

	g.running.Dec()
	switch state {
	case jobDone:
		g.jdone.Inc()
	case jobCanceled:
		g.jcanceled.Inc()
	default:
		g.jfailed.Inc()
	}
	g.mu.Lock()
	if state != jobDone && g.byKey[j.key] == j {
		delete(g.byKey, j.key)
	}
	g.retainLocked(j)
	g.mu.Unlock()
}

// retainLocked appends a finished job and evicts the oldest beyond the
// bound. An evicted job unregisters only itself: a retry of a failed
// job shares its id and key and must stay reachable. Callers hold g.mu.
func (g *jobs[S, P, R]) retainLocked(j *job[S, P, R]) {
	g.finished = append(g.finished, j)
	for len(g.finished) > g.retention {
		old := g.finished[0]
		g.finished = g.finished[1:]
		if g.byID[old.id] == old {
			delete(g.byID, old.id)
		}
		if g.byKey[old.key] == old {
			delete(g.byKey, old.key)
		}
	}
}

// close stops accepting submissions and cancels every running job.
func (g *jobs[S, P, R]) close() {
	g.mu.Lock()
	g.closed = true
	var cancels []context.CancelFunc
	for _, j := range g.byID {
		j.mu.Lock()
		if j.state == jobRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	g.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// exportDone renders every finished (done) job as a wire envelope,
// oldest first — the handoff order, so retention eviction on the
// receiving side keeps the newest results.
func (g *jobs[S, P, R]) exportDone() []jobEnvelope {
	g.mu.Lock()
	finished := append([]*job[S, P, R](nil), g.finished...)
	g.mu.Unlock()
	out := make([]jobEnvelope, 0, len(finished))
	for _, j := range finished {
		if env, ok := envelopeOf(j); ok {
			out = append(out, env)
		}
	}
	return out
}

// importDone registers an inherited finished job for polling and — by
// content key — as a coalescing result-cache hit, exactly like a
// locally finished job. Existing ids and keys win over imports; the
// retention bound applies as usual.
func (g *jobs[S, P, R]) importDone(j *job[S, P, R]) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	if _, taken := g.byID[j.id]; taken {
		return false
	}
	if _, taken := g.byKey[j.key]; taken {
		return false
	}
	g.byID[j.id] = j
	g.byKey[j.key] = j
	g.retainLocked(j)
	return true
}

// startJob launches j's runner and deadline watcher. The runner holds
// one inflight evaluation slot while run executes; run may call
// release early to give the slot back before work that is not
// evaluation (a store commit). The watcher makes the deadline, or
// Close, observable even while run is stuck inside a phase that cannot
// be interrupted (an ensemble source that blocks during matrix
// compile). Call from submit's start hook.
func startJob[S jobSpec[P, R], P, R any](s *Server, g *jobs[S, P, R], j *job[S, P, R], run func(ctx context.Context, release func()) (R, error)) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.JobTimeout)
	j.cancel = cancel
	// The job runs under its own trace, linked to the submitting
	// request's trace by annotation (the submit request finishes long
	// before the job does, so sharing one trace would tie the job's
	// spans to an already-published tree).
	tr := s.tracer.Start(g.trace)
	if tr != nil {
		ctx = obs.ContextWithSpan(obs.ContextWithTrace(ctx, tr), tr.Root())
		j.traceID = tr.ID()
		tr.Root().Annotate("job_id", j.id)
		if j.submitTrace != "" {
			tr.Root().Annotate("submit_trace_id", j.submitTrace)
		}
	}
	go func() {
		select {
		case <-ctx.Done():
			// Timeout or Close: surface the terminal state immediately;
			// the runner's eventual return is a no-op on a finished job.
			err := ctx.Err()
			if errors.Is(err, context.DeadlineExceeded) {
				s.timeouts.Inc()
				err = fmt.Errorf("job exceeded its %v deadline: %w", s.opt.JobTimeout, err)
			}
			var zero R
			g.finish(j, zero, err)
		case <-j.done:
		}
	}()
	go func() {
		defer cancel()
		var res R
		release, err := s.acquire(ctx)
		if err == nil {
			release = sync.OnceFunc(release)
			res, err = run(ctx, release)
			release()
		}
		g.finish(j, res, err)
		tr.Finish()
	}()
}

// Close cancels all running placement and generation jobs and rejects
// new submissions and uploads; poll endpoints keep answering (canceled
// jobs report their state) and /v1/readyz starts failing. Call after
// Run returns, before process exit, so job goroutines stop
// deterministically.
func (s *Server) Close() {
	s.closed.Store(true)
	s.jobs.close()
	s.genjobs.close()
}

// writeJobSubmitted answers a submission with status: the Location of
// the job's poll endpoint (pollPath + id) and the kind's fields plus
// job_id, status and coalesced. A 202 also cross-links the submitting
// trace and the job trace in both directions (span annotation, trace
// header), so an operator can walk submit → run → poll; a 200 answers
// from work that already exists and links neither.
func writeJobSubmitted[S, P, R any](w http.ResponseWriter, r *http.Request, status int, pollPath string, j *job[S, P, R], coalesced bool, fields map[string]any) error {
	if status == http.StatusAccepted {
		obs.SpanFromContext(r.Context()).Annotate("job_id", j.id)
		if j.traceID != "" {
			w.Header().Set(JobTraceHeader, j.traceID)
		}
	}
	w.Header().Set("Location", pollPath+j.id)
	state, _, _, _ := j.snapshot()
	fields["job_id"], fields["status"], fields["coalesced"] = j.id, state, coalesced
	return writeJSONStatus(w, status, fields)
}

// writeJobPoll answers a poll for the {id} path value in g: 404 for an
// unknown id, else job_id, status, age_seconds and any error, plus the
// fields render adds for the kind.
func writeJobPoll[S jobSpec[P, R], P, R any](w http.ResponseWriter, r *http.Request, g *jobs[S, P, R],
	render func(out map[string]any, j *job[S, P, R], state string, progress P, result R)) error {
	if err := checkParams(r); err != nil {
		return err
	}
	id := r.PathValue("id")
	j, ok := g.get(id)
	if !ok {
		return notFoundf("unknown job %q", id)
	}
	if j.traceID != "" {
		w.Header().Set(JobTraceHeader, j.traceID)
	}
	state, progress, result, jerr := j.snapshot()
	out := map[string]any{
		"job_id":      j.id,
		"status":      state,
		"age_seconds": time.Since(j.created).Seconds(),
	}
	if jerr != nil {
		out["error"] = jerr.Error()
	}
	render(out, j, state, progress, result)
	return writeJSON(w, out)
}

// writeJSONStatus renders a success response with an explicit status
// code (writeJSON defaults to 200).
func writeJSONStatus(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// ---- finished-job envelopes ----

// Job kinds as named in the envelope.
const (
	placementKind  = "placement"
	generationKind = "generation"
)

// jobEnvelope is the versioned wire form of one finished job: the
// shared identity plus exactly one kind payload carrying everything the
// kind's poll endpoint renders, so a successor answers polls for
// inherited jobs exactly as the original worker would.
type jobEnvelope struct {
	Version         int             `json:"version"`
	Kind            string          `json:"kind"`
	ID              string          `json:"id"`
	Key             string          `json:"key"`
	Ensemble        string          `json:"ensemble"`
	CreatedUnixNano int64           `json:"created_unix_nano"`
	Placement       *placementWire  `json:"placement,omitempty"`
	Generation      *generationWire `json:"generation,omitempty"`
}

// envelopeOf renders a done job; ok is false for jobs that are not
// exportable (running, failed, canceled).
func envelopeOf[S jobSpec[P, R], P, R any](j *job[S, P, R]) (jobEnvelope, bool) {
	state, progress, result, _ := j.snapshot()
	env := jobEnvelope{
		Version:         JobEnvelopeVersion,
		ID:              j.id,
		Key:             j.key,
		CreatedUnixNano: j.created.UnixNano(),
	}
	if state != jobDone || !j.spec.wire(&env, progress, result) {
		return jobEnvelope{}, false
	}
	return env, true
}

// checkEnvelope validates the shared part of an envelope of kind.
func checkEnvelope(env jobEnvelope, kind string) error {
	if env.Version != JobEnvelopeVersion {
		return fmt.Errorf("unsupported job envelope version %d (have %d)", env.Version, JobEnvelopeVersion)
	}
	if env.Kind != kind {
		return fmt.Errorf("job envelope kind %q, want %q", env.Kind, kind)
	}
	if env.ID == "" || env.Key == "" {
		return errors.New("job envelope missing id or key")
	}
	if (env.Placement != nil) != (kind == placementKind) || (env.Generation != nil) != (kind == generationKind) {
		return fmt.Errorf("job envelope of kind %q must carry exactly its own payload", kind)
	}
	return nil
}

// exportJobs lists every done job of every kind, each kind oldest
// first.
func (s *Server) exportJobs() []jobEnvelope {
	return append(s.jobs.exportDone(), s.genjobs.exportDone()...)
}

// importJob registers one inherited done job. It reports false when the
// job is skipped: its id or key already exists locally, or — for a
// generation job — its ensemble is not loaded here.
func (s *Server) importJob(env jobEnvelope) (bool, error) {
	switch env.Kind {
	case placementKind:
		j, err := jobFromEnvelope(env)
		if err != nil {
			return false, err
		}
		return s.jobs.importDone(j), nil
	case generationKind:
		j, err := generationFromEnvelope(env)
		if err != nil {
			return false, err
		}
		if _, err := s.ensemble(j.spec.ensName); err != nil {
			return false, nil
		}
		return s.genjobs.importDone(j), nil
	}
	return false, fmt.Errorf("unknown job kind %q", env.Kind)
}

// ---- GET /v1/jobs/export ----

// handleJobsExport lists every finished (done) job as a versioned
// envelope: placement jobs then generation jobs, each oldest first.
func (s *Server) handleJobsExport(w http.ResponseWriter, r *http.Request) error {
	if err := checkParams(r); err != nil {
		return err
	}
	return writeJSON(w, map[string]any{"version": JobEnvelopeVersion, "jobs": s.exportJobs()})
}

// ---- POST /v1/jobs/import ----

// handleJobsImport accepts finished-job envelopes and registers them
// for polling (and, by content key, as coalescing result-cache hits).
// Skipped jobs (see importJob) count as received, not imported.
func (s *Server) handleJobsImport(w http.ResponseWriter, r *http.Request) error {
	if s.closed.Load() {
		return errShuttingDown()
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxImportBytes))
	dec.DisallowUnknownFields()
	var body struct {
		Version int           `json:"version"`
		Jobs    []jobEnvelope `json:"jobs"`
	}
	if err := dec.Decode(&body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("invalid request body: %v", err)
	}
	if body.Version != JobEnvelopeVersion {
		return badRequestf("unsupported job envelope version %d (have %d)", body.Version, JobEnvelopeVersion)
	}
	imported := 0
	for i, env := range body.Jobs {
		ok, err := s.importJob(env)
		if err != nil {
			return badRequestf("job %d: %v", i, err)
		}
		if ok {
			imported++
			s.jobsImported.Inc()
		}
	}
	return writeJSON(w, map[string]any{"imported": imported, "received": len(body.Jobs)})
}
