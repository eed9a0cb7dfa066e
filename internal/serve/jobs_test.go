package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postJob submits one placement-search body and decodes the response.
func postJob(t testing.TB, h http.Handler, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/placement/search", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return decodeBody(t, w, "POST /v1/placement/search")
}

func decodeBody(t testing.TB, w *httptest.ResponseRecorder, what string) (int, map[string]any) {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: non-JSON body %q: %v", what, w.Body.String(), err)
	}
	return w.Code, body
}

// pollJob polls the job until it leaves the running state.
func pollJob(t testing.TB, h http.Handler, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, h, "/v1/placement/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %v", id, code, body)
		}
		if body["status"] != jobRunning {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %v", id, body)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobSubmitAndPoll: a submitted exact search runs to completion
// and the poll endpoint reports the optimum with its full outcome.
// Over the stub ensemble ({a,b} flood together, a alone once, c
// never), the best 2-of-3 placement is {b, c}: one flooded site in one
// of four realizations.
func TestJobSubmitAndPoll(t *testing.T) {
	s, _, rec := newStubServer(t, Options{})
	code, body := postJob(t, s.Handler(), `{"k":2,"exact":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, body)
	}
	id, _ := body["job_id"].(string)
	if id == "" {
		t.Fatalf("no job_id in %v", body)
	}
	if body["coalesced"] != false || body["k"] != float64(2) || body["exact"] != true {
		t.Errorf("submit body = %v", body)
	}

	done := pollJob(t, s.Handler(), id)
	if done["status"] != jobDone {
		t.Fatalf("terminal state = %v (%v)", done["status"], done["error"])
	}
	res, _ := done["result"].(map[string]any)
	if res == nil {
		t.Fatalf("done job has no result: %v", done)
	}
	sites, _ := res["sites"].([]any)
	if len(sites) != 2 || sites[0] != "b" || sites[1] != "c" {
		t.Errorf("sites = %v, want [b c]", sites)
	}
	if res["score"] != 0.75 {
		t.Errorf("score = %v, want 0.75", res["score"])
	}
	if res["exact"] != true || res["candidates"] != float64(3) {
		t.Errorf("result = %v", res)
	}
	outcome, _ := res["outcome"].(map[string]any)
	if outcome == nil || outcome["realizations"] != float64(4) {
		t.Errorf("outcome = %v", outcome)
	}
	if v := rec.Counter("serve.jobs_submitted").Value(); v != 1 {
		t.Errorf("jobs_submitted = %d, want 1", v)
	}
	if v := rec.Counter("serve.jobs_done").Value(); v != 1 {
		t.Errorf("jobs_done = %d, want 1", v)
	}
	if v := rec.Gauge("serve.jobs_running").Value(); v != 0 {
		t.Errorf("jobs_running = %d, want 0", v)
	}

	// The job counters surface through the Prometheus endpoint.
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "serve_jobs_done_total 1") {
		t.Error("metrics exposition missing serve_jobs_done_total")
	}
}

// TestJobCoalescing: identical submissions share one job (including
// after it finishes — the job doubles as a result cache); different
// search shapes get different jobs.
func TestJobCoalescing(t *testing.T) {
	s, stub, rec := newStubServer(t, Options{Timeout: time.Minute})
	stub.close()
	t.Cleanup(stub.open)

	body := `{"k":2}`
	code, first := postJob(t, s.Handler(), body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, first)
	}
	code, second := postJob(t, s.Handler(), body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	if first["job_id"] != second["job_id"] {
		t.Errorf("identical submissions got jobs %v and %v", first["job_id"], second["job_id"])
	}
	if second["coalesced"] != true {
		t.Error("resubmission not marked coalesced")
	}
	code, other := postJob(t, s.Handler(), `{"k":2,"objective":"weighted"}`)
	if code != http.StatusAccepted {
		t.Fatalf("distinct submit: status %d", code)
	}
	if other["job_id"] == first["job_id"] {
		t.Error("distinct search shape coalesced onto the same job")
	}
	if v := rec.Counter("serve.jobs_submitted").Value(); v != 2 {
		t.Errorf("jobs_submitted = %d, want 2", v)
	}
	if v := rec.Counter("serve.jobs_coalesced").Value(); v != 1 {
		t.Errorf("jobs_coalesced = %d, want 1", v)
	}

	stub.open()
	done := pollJob(t, s.Handler(), first["job_id"].(string))
	if done["status"] != jobDone {
		t.Fatalf("terminal state = %v (%v)", done["status"], done["error"])
	}
	// Resubmitting a finished search coalesces onto the retained job.
	code, again := postJob(t, s.Handler(), body)
	if code != http.StatusAccepted || again["job_id"] != first["job_id"] || again["coalesced"] != true {
		t.Errorf("post-completion resubmit = %d %v", code, again)
	}
	if again["status"] != jobDone {
		t.Errorf("post-completion resubmit status = %v, want done", again["status"])
	}
}

// TestJobTimeout: a job stuck in compile past Options.JobTimeout is
// marked failed with a deadline error — the watcher fires even though
// the search cannot observe the context inside a blocking source.
func TestJobTimeout(t *testing.T) {
	s, stub, rec := newStubServer(t, Options{JobTimeout: 50 * time.Millisecond})
	stub.close()
	t.Cleanup(stub.open)

	code, body := postJob(t, s.Handler(), `{"k":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, body)
	}
	done := pollJob(t, s.Handler(), body["job_id"].(string))
	if done["status"] != jobFailed {
		t.Fatalf("terminal state = %v, want failed", done["status"])
	}
	if msg, _ := done["error"].(string); !strings.Contains(msg, "deadline") {
		t.Errorf("error = %q, want a deadline message", msg)
	}
	if v := rec.Counter("serve.jobs_failed").Value(); v != 1 {
		t.Errorf("jobs_failed = %d, want 1", v)
	}
	if v := rec.Counter("serve.timeouts").Value(); v != 1 {
		t.Errorf("timeouts = %d, want 1", v)
	}

	// A failed job leaves the coalescing index: the same body submits a
	// fresh job (new attempt, not the failed one).
	stub.open()
	code, retry := postJob(t, s.Handler(), `{"k":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("retry: status %d", code)
	}
	if retry["coalesced"] != false {
		t.Error("retry coalesced onto the failed job")
	}
}

// TestJobCanceledOnClose: Close cancels running jobs (pollable as
// canceled) and rejects new submissions with 503.
func TestJobCanceledOnClose(t *testing.T) {
	s, stub, rec := newStubServer(t, Options{Timeout: time.Minute})
	stub.close()
	t.Cleanup(stub.open)

	code, body := postJob(t, s.Handler(), `{"k":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, body)
	}
	s.Close()
	done := pollJob(t, s.Handler(), body["job_id"].(string))
	if done["status"] != jobCanceled {
		t.Fatalf("terminal state = %v, want canceled", done["status"])
	}
	if v := rec.Counter("serve.jobs_canceled").Value(); v != 1 {
		t.Errorf("jobs_canceled = %d, want 1", v)
	}
	code, rejected := postJob(t, s.Handler(), `{"k":3}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close submit: status %d, body %v", code, rejected)
	}
	if e, _ := rejected["error"].(map[string]any); e == nil || e["code"] != "shutting_down" {
		t.Errorf("post-Close error = %v, want shutting_down", rejected)
	}
}

// TestJobRetention: finished jobs beyond JobRetention are evicted
// oldest-first and their ids stop resolving.
func TestJobRetention(t *testing.T) {
	s, _, _ := newStubServer(t, Options{JobRetention: 1})
	code, first := postJob(t, s.Handler(), `{"k":2}`)
	if code != http.StatusAccepted {
		t.Fatal("first submit rejected")
	}
	pollJob(t, s.Handler(), first["job_id"].(string))
	code, second := postJob(t, s.Handler(), `{"k":3}`)
	if code != http.StatusAccepted {
		t.Fatal("second submit rejected")
	}
	pollJob(t, s.Handler(), second["job_id"].(string))

	if code, _ := get(t, s.Handler(), "/v1/placement/jobs/"+first["job_id"].(string)); code != http.StatusNotFound {
		t.Errorf("evicted job poll: status %d, want 404", code)
	}
	if code, _ := get(t, s.Handler(), "/v1/placement/jobs/"+second["job_id"].(string)); code != http.StatusOK {
		t.Errorf("retained job poll: status %d, want 200", code)
	}
}

// TestJobValidation: malformed submissions fail synchronously with the
// typed error envelope — nothing to poll.
func TestJobValidation(t *testing.T) {
	s, _, rec := newStubServer(t, Options{})
	tests := []struct {
		name   string
		body   string
		status int
	}{
		{"invalid json", `{`, http.StatusBadRequest},
		{"unknown field", `{"k":2,"nope":1}`, http.StatusBadRequest},
		{"zero k", `{"k":0}`, http.StatusBadRequest},
		{"k over candidates", `{"k":5}`, http.StatusBadRequest},
		{"bad objective", `{"k":2,"objective":"pink"}`, http.StatusBadRequest},
		{"bad scenario", `{"k":2,"scenario":"meteor"}`, http.StatusBadRequest},
		{"unknown ensemble", `{"k":2,"ensemble":"nope"}`, http.StatusNotFound},
		{"unknown candidate", `{"k":2,"candidates":["a","zzz"]}`, http.StatusBadRequest},
		{"duplicate candidate", `{"k":2,"candidates":["a","a"]}`, http.StatusBadRequest},
		{"over max candidates", `{"k":2,"max_candidates":2}`, http.StatusBadRequest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, body := postJob(t, s.Handler(), tt.body)
			if code != tt.status {
				t.Fatalf("status = %d, want %d (body %v)", code, tt.status, body)
			}
			if e, _ := body["error"].(map[string]any); e == nil || e["code"] == "" {
				t.Errorf("missing error envelope: %v", body)
			}
		})
	}
	if v := rec.Counter("serve.jobs_submitted").Value(); v != 0 {
		t.Errorf("jobs_submitted = %d, want 0 (no valid submissions)", v)
	}
	if code, _ := get(t, s.Handler(), "/v1/placement/jobs/ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown job poll: status %d, want 404", code)
	}
}

// TestJobRetryStaysPollable: a resubmission after a failure reuses the
// failed job's id (ids hash the content key), so evicting the failed
// predecessor must not unregister the retry. Retention 1 makes the
// retry's own finish evict the predecessor. Covers both job kinds.
func TestJobRetryStaysPollable(t *testing.T) {
	t.Run("placement", func(t *testing.T) {
		s, stub, _ := newStubServer(t, Options{JobRetention: 1, JobTimeout: 100 * time.Millisecond})
		stub.close()
		t.Cleanup(stub.open)
		_, first := postJob(t, s.Handler(), `{"k":2}`)
		id, _ := first["job_id"].(string)
		if done := pollJob(t, s.Handler(), id); done["status"] != jobFailed {
			t.Fatalf("first attempt = %v, want failed", done["status"])
		}
		stub.open()
		_, retry := postJob(t, s.Handler(), `{"k":2}`)
		if retry["job_id"] != id || retry["coalesced"] != false {
			t.Fatalf("retry = %v, want a fresh job under id %s", retry, id)
		}
		pollJob(t, s.Handler(), id) // fails the test on a 404

		// A later finish evicts the retry as the oldest retained job.
		_, other := postJob(t, s.Handler(), `{"k":3}`)
		pollJob(t, s.Handler(), other["job_id"].(string))
		if code, _ := get(t, s.Handler(), "/v1/placement/jobs/"+id); code != http.StatusNotFound {
			t.Errorf("evicted retry poll: status %d, want 404", code)
		}
	})
	t.Run("generation", func(t *testing.T) {
		// A byte quota that fits the topology but not the ensemble blob
		// fails every generation at commit, deterministically.
		doc := testTopologyJSON("retry")
		_, canonical, _, err := decodeTopologyDoc([]byte(doc), Options{}.defaults())
		if err != nil {
			t.Fatal(err)
		}
		s, _ := newTestServer(t, Options{JobRetention: 1, QuotaBytes: int64(len(canonical)) + 64})
		code, body := uploadPost(t, s.Handler(), "/v1/topologies", doc, nil)
		if code != http.StatusCreated {
			t.Fatalf("upload = %d, body %v", code, body)
		}
		params := testEnsembleJSON(body["topology_id"].(string), 8, 3)
		_, first := uploadPost(t, s.Handler(), "/v1/ensembles", params, nil)
		id, _ := first["job_id"].(string)
		if final := awaitGenJob(t, s.Handler(), id); final["status"] != jobFailed {
			t.Fatalf("first attempt = %v, want failed", final["status"])
		}
		_, retry := uploadPost(t, s.Handler(), "/v1/ensembles", params, nil)
		if retry["job_id"] != id || retry["coalesced"] != false {
			t.Fatalf("retry = %v, want a fresh job under id %s", retry, id)
		}
		if final := awaitGenJob(t, s.Handler(), id); final["status"] != jobFailed {
			t.Errorf("retry = %v, want failed (quota)", final["status"])
		}
	})
}
