package serve

// Compiled-view export/import and warm-cache handoff. The sharded tier
// keys each compiled view to exactly one worker; when that worker
// drains, its cache would die with it and every key it owned would
// recompile cold on whichever worker inherits the traffic. These
// endpoints make the cache portable: views travel in the versioned
// engine wire codec (X-Codec-Version header), finished jobs travel in
// a versioned JSON envelope (jobs.go), and Handoff streams both to a
// successor hottest-first on shutdown.
//
// Imports are validated, not trusted blindly: the cache key names the
// ensemble fingerprint the view was compiled from, and an import is
// accepted only when a loaded ensemble has that exact fingerprint and
// the decoded matrix matches the key's universe and the ensemble's
// realization count. The fingerprint covers the ensemble's full
// failure-bit content, so a fingerprint match means the peer compiled
// from bit-identical data.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
)

// CodecVersionHeader carries the engine wire-codec version on view
// export responses and import requests.
const CodecVersionHeader = "X-Codec-Version"

// ---- GET /v1/readyz ----

// handleReadyz is the router-facing readiness probe: 200 while the
// server accepts work, 503 with the shutting_down envelope once Close
// has run. Liveness plus inventory lives at /v1/healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	if err := checkParams(r); err != nil {
		return err
	}
	if s.closed.Load() {
		return errShuttingDown()
	}
	return writeJSON(w, map[string]any{"ready": true})
}

// ---- GET /v1/views ----

// handleViews lists the cached compiled views hottest-first: the key,
// its shape, and the ensemble it belongs to — what a successor would
// receive from a handoff, in the order it would receive it.
func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) error {
	if err := checkParams(r); err != nil {
		return err
	}
	snap := s.cache.snapshot()
	type viewJSON struct {
		Key              string `json:"key"`
		Ensemble         string `json:"ensemble,omitempty"`
		Assets           int    `json:"assets"`
		Rows             int    `json:"rows"`
		DistinctPatterns int    `json:"distinct_patterns"`
		WireBytes        int    `json:"wire_bytes_estimate"`
	}
	views := make([]viewJSON, 0, len(snap))
	for _, kv := range snap {
		cm := kv.view.cells.Matrix()
		vj := viewJSON{
			Key:              kv.key,
			Assets:           len(cm.Source().Assets()),
			Rows:             cm.Rows(),
			DistinctPatterns: cm.DistinctRows(),
			WireBytes:        cm.EncodedSizeEstimate(),
		}
		if ens, _, err := s.resolveViewKey(kv.key); err == nil {
			vj.Ensemble = ens.name
		}
		views = append(views, vj)
	}
	return writeJSON(w, map[string]any{
		"codec_version": engine.CompressedMatrixCodecVersion,
		"capacity":      s.opt.CacheEntries,
		"views":         views,
	})
}

// ---- GET /v1/views/export ----

// handleViewExport streams one cached view in wire format. The key is
// the cache key exactly as /v1/views lists it.
func (s *Server) handleViewExport(w http.ResponseWriter, r *http.Request) error {
	if err := checkParams(r, "key"); err != nil {
		return err
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		return badRequestf("key parameter required")
	}
	v, ok := s.cache.peek(key)
	if !ok {
		return notFoundf("no cached view for key %q", key)
	}
	s.viewsExported.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(CodecVersionHeader, strconv.Itoa(engine.CompressedMatrixCodecVersion))
	return engine.EncodeCompressedMatrix(w, v.cells.Matrix())
}

// ---- POST /v1/views/import ----

// handleViewImport accepts one wire-encoded view and inserts it into
// the cache under the given key. The declared codec version must match,
// the key's fingerprint must name a loaded ensemble, and the decoded
// matrix must cover exactly the key's universe over that ensemble's
// realization count. An already-present key is not overwritten.
func (s *Server) handleViewImport(w http.ResponseWriter, r *http.Request) error {
	if err := checkParams(r, "key"); err != nil {
		return err
	}
	if s.closed.Load() {
		return errShuttingDown()
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		return badRequestf("key parameter required")
	}
	if got := r.Header.Get(CodecVersionHeader); got != strconv.Itoa(engine.CompressedMatrixCodecVersion) {
		return badRequestf("%s %q does not match supported codec version %d",
			CodecVersionHeader, got, engine.CompressedMatrixCodecVersion)
	}
	ens, universe, err := s.resolveViewKey(key)
	if err != nil {
		return err
	}
	cm, err := engine.DecodeCompressedMatrix(http.MaxBytesReader(w, r.Body, s.opt.MaxImportBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("decode view: %v", err)
	}
	ids := cm.Source().Assets()
	if len(ids) != len(universe) {
		return badRequestf("view covers %d assets, key names %d", len(ids), len(universe))
	}
	for i, id := range ids {
		if id != universe[i] {
			return badRequestf("view asset %d is %q, key names %q", i, id, universe[i])
		}
	}
	if cm.Rows() != ens.e.Size() {
		return badRequestf("view has %d realizations, ensemble %q has %d", cm.Rows(), ens.name, ens.e.Size())
	}
	imported := s.cache.put(key, &view{cells: engine.NewCells(cm)})
	if imported {
		s.viewsImported.Inc()
	}
	return writeJSON(w, map[string]any{"imported": imported, "key": key})
}

// resolveViewKey parses a cache key ("%016x|universe\x1funiverse...")
// and resolves its fingerprint against the loaded ensembles.
func (s *Server) resolveViewKey(key string) (*ensembleEntry, []string, error) {
	hexPart, rest, ok := strings.Cut(key, "|")
	if !ok {
		return nil, nil, badRequestf("malformed view key %q", key)
	}
	hash, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil || len(hexPart) != 16 {
		return nil, nil, badRequestf("malformed fingerprint in view key %q", key)
	}
	var ens *ensembleEntry
	s.mu.RLock()
	for _, name := range s.names {
		if e := s.ensembles[name]; e.hash == hash {
			ens = e
			break
		}
	}
	s.mu.RUnlock()
	if ens == nil {
		return nil, nil, notFoundf("no loaded ensemble has fingerprint %s", hexPart)
	}
	universe := strings.Split(rest, "\x1f")
	if len(universe) == 0 || universe[0] == "" {
		return nil, nil, badRequestf("view key %q names no assets", key)
	}
	if err := ens.checkAssets(universe); err != nil {
		return nil, nil, err
	}
	return ens, universe, nil
}

// ---- warm handoff ----

// HandoffReport summarizes one handoff: how much state the successor
// accepted.
type HandoffReport struct {
	// Views is the number of compiled views the successor imported.
	Views int
	// SkippedViews counts views the successor already had (or refused).
	SkippedViews int
	// Jobs is the number of finished jobs the successor imported, of
	// every kind (placement searches and ensemble generations).
	Jobs int
}

// Handoff streams this server's hottest compiled views (up to maxViews;
// 0 = all) and its finished placement and generation jobs to the
// successor at baseURL, using the view wire codec and the job envelope.
// The successor skips a generation job whose ensemble it has not
// loaded (a successor sharing this server's -store loads every one). Call it after the
// listener has drained: the cache is no longer changing, so the
// snapshot is the final LRU order. Per-item failures abort the handoff
// and return what had transferred by then.
func (s *Server) Handoff(ctx context.Context, baseURL string, maxViews int) (HandoffReport, error) {
	var rep HandoffReport
	base := strings.TrimSuffix(baseURL, "/")
	client := &http.Client{}
	defer client.CloseIdleConnections()
	snap := s.cache.snapshot()
	if maxViews > 0 && maxViews < len(snap) {
		snap = snap[:maxViews]
	}
	sp := obs.Default().StartSpan("serve.handoff")
	defer sp.End()
	for _, kv := range snap {
		var buf strings.Builder
		if err := engine.EncodeCompressedMatrix(&buf, kv.view.cells.Matrix()); err != nil {
			return rep, fmt.Errorf("serve: encode view %q: %w", kv.key, err)
		}
		u := base + "/v1/views/import?key=" + url.QueryEscape(kv.key)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(buf.String()))
		if err != nil {
			return rep, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(CodecVersionHeader, strconv.Itoa(engine.CompressedMatrixCodecVersion))
		var out struct {
			Imported bool `json:"imported"`
		}
		if err := doJSON(client, req, &out); err != nil {
			return rep, fmt.Errorf("serve: handoff view %q: %w", kv.key, err)
		}
		if out.Imported {
			rep.Views++
			s.handoffViews.Inc()
		} else {
			rep.SkippedViews++
		}
	}
	envs := s.exportJobs()
	if len(envs) > 0 {
		body, err := json.Marshal(map[string]any{"version": JobEnvelopeVersion, "jobs": envs})
		if err != nil {
			return rep, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs/import", strings.NewReader(string(body)))
		if err != nil {
			return rep, err
		}
		req.Header.Set("Content-Type", "application/json")
		var out struct {
			Imported int `json:"imported"`
		}
		if err := doJSON(client, req, &out); err != nil {
			return rep, fmt.Errorf("serve: handoff jobs: %w", err)
		}
		rep.Jobs = out.Imported
	}
	return rep, nil
}

// doJSON runs one request and decodes a JSON response, turning non-2xx
// statuses into errors carrying the response body.
func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
