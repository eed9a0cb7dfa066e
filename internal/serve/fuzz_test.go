package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// FuzzTopologyUpload checks the topology decode/validate path against
// arbitrary bodies: no panics, and every accepted document has a
// stable content id — re-decoding its canonical form yields the same
// id, so idempotent re-uploads can never split.
func FuzzTopologyUpload(f *testing.F) {
	f.Add(testTopologyJSON("seed"))
	f.Add(`{"name": "x"}`)
	f.Add(`{not json`)
	f.Add(``)
	f.Add(strings.Replace(testTopologyJSON("mut"), `"control-center"`, `"x"`, 1))
	f.Add(testTopologyJSON("trail") + `{"more": 1}`)
	opt := Options{}.defaults()
	f.Fuzz(func(t *testing.T, input string) {
		doc, canonical, id, err := decodeTopologyDoc([]byte(input), opt)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(id) != 16 {
			t.Fatalf("accepted document with id %q, want 16 hex digits", id)
		}
		if doc.Name == "" || len(doc.Assets) == 0 || len(doc.Terrain.Coastline) < 3 {
			t.Fatalf("accepted document violates its own limits: %+v", doc)
		}
		_, canonical2, id2, err := decodeTopologyDoc(canonical, opt)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if id2 != id {
			t.Fatalf("canonical re-decode changed id: %s != %s", id2, id)
		}
		if string(canonical2) != string(canonical) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canonical2, canonical)
		}
	})
}

// FuzzEnsembleParams checks the generation-parameter decode path:
// no panics, accepted parameters always validate as an
// EnsembleConfig, and the scenario id is deterministic.
func FuzzEnsembleParams(f *testing.F) {
	f.Add(testEnsembleJSON(strings.Repeat("a", 16), 8, 7))
	f.Add(`{"topology": ""}`)
	f.Add(`{"topology": "x", "realizations": -1}`)
	f.Add(`{not json`)
	f.Add(``)
	opt := Options{}.defaults()
	f.Fuzz(func(t *testing.T, input string) {
		p, err := decodeEnsembleParams([]byte(input), opt)
		if err != nil {
			return
		}
		if p.topologyID == "" {
			t.Fatal("accepted parameters without a topology id")
		}
		if err := p.cfg.Validate(); err != nil {
			t.Fatalf("accepted parameters fail config validation: %v", err)
		}
		p2, err := decodeEnsembleParams(p.canonical, opt)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if p2.scenarioID != p.scenarioID {
			t.Fatalf("canonical re-decode changed scenario id: %s != %s", p2.scenarioID, p.scenarioID)
		}
	})
}

// FuzzJobsImport checks POST /v1/jobs/import against arbitrary bodies:
// no panics, every response is 200 or a typed error envelope, every
// imported job polls 200, and export → import → export of an accepted
// body is a fixed point.
func FuzzJobsImport(f *testing.F) {
	sites := []string{"a", "c"}
	placed, _ := envelopeOf(doneJob("00000000000000aa", "k1",
		placementSpec{ensName: "stub", scenario: threat.HurricaneIsolation, objName: "green", k: 2},
		time.Unix(0, 7), placement.KProgress{Phase: "exact", Evaluated: 3, BestSites: sites},
		&placement.KResult{Sites: sites, Score: 0.75, Outcome: analysis.Outcome{Config: topology.NewConfigKSite(sites), Profile: stats.NewProfile()}}))
	generated, _ := envelopeOf(doneJob("00000000000000bb", "0123456789abcdef",
		generationSpec{ensName: "u-0123456789abcdef", topologyID: "t", total: 8}, time.Unix(0, 9), 8, 3))
	for _, envs := range [][]jobEnvelope{{placed}, {generated}, {placed, generated}, {}} {
		body, _ := json.Marshal(map[string]any{"version": JobEnvelopeVersion, "jobs": envs})
		f.Add(string(body))
	}
	f.Add(`{"version": 1, "jobs": []}`)
	f.Add(`{"version": 2, "jobs": [{"version": 2, "kind": "campaign", "id": "x", "key": "y"}]}`)
	f.Add(`{"version": 2, "jobs": [{"version": 2, "kind": "placement", "id": "x", "key": "y"}]}`)
	f.Add(`{not json`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, input string) {
		a, _, _ := newStubServer(t, Options{})
		code, out := postImport(t, a, input)
		if code != http.StatusOK {
			if e, _ := out["error"].(map[string]any); e == nil || e["code"] == "" || e["message"] == "" {
				t.Fatalf("status %d without a typed error envelope: %v", code, out)
			}
			return
		}
		exported := exportJobsBody(t, a)
		var env struct {
			Jobs []jobEnvelope `json:"jobs"`
		}
		if err := json.Unmarshal(exported, &env); err != nil {
			t.Fatal(err)
		}
		for _, j := range env.Jobs {
			path := "/v1/placement/jobs/" + j.ID
			if j.Kind == generationKind {
				path = "/v1/ensembles/jobs/" + j.ID
			}
			if code, body := get(t, a.Handler(), path); code != http.StatusOK {
				t.Fatalf("imported job %s polls %d: %v", j.ID, code, body)
			}
		}
		b, _, _ := newStubServer(t, Options{})
		if code, out := postImport(t, b, string(exported)); code != http.StatusOK || out["imported"] != float64(len(env.Jobs)) {
			t.Fatalf("re-import of an export = %d %v, want all %d imported", code, out, len(env.Jobs))
		}
		if again := exportJobsBody(t, b); !bytes.Equal(again, exported) {
			t.Fatalf("export is not a fixed point:\n%s\n%s", exported, again)
		}
	})
}

func postImport(t *testing.T, s *Server, body string) (int, map[string]any) {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs/import", strings.NewReader(body)))
	return decodeBody(t, w, "POST /v1/jobs/import")
}

func exportJobsBody(t *testing.T, s *Server) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/export", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("export: %d %s", w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// FuzzSweepShape checks the shard-key derivation of /v1/sweep, which
// the router and the workers share: no panics; the GET form (query
// parameters) and the POST form (JSON body) of one request agree on
// acceptance and on the whole QueryShape; and whenever the server
// accepts the request, the shape's Identity is the universe half of
// the key viewFor caches the compiled view under — so two equivalent
// queries can never split one view across workers. configs is a
// comma-separated list of config names ("" = none given).
func FuzzSweepShape(f *testing.F) {
	f.Add("", "", "", "", "", "")
	f.Add("oahu", "both", "6+6+6,2", assets.HonoluluCC, assets.Kahe, assets.DRFortress)
	f.Add("", "isolation", "2-2,6-6", "", assets.Kahe, "")
	f.Add("oahu", "volcano", "", "", "", "")
	f.Add("", "", "6,6", "", "", "")
	f.Add("", "", ",", "", "", "")
	f.Add("other", "hurricane", "4", assets.Waiau, assets.Waiau, "nowhere")
	s, _ := newTestServer(f, Options{})
	f.Fuzz(func(t *testing.T, ensemble, scenario, configs, primary, second, dataCenter string) {
		for _, v := range []string{ensemble, scenario, configs, primary, second, dataCenter} {
			if !utf8.ValidString(v) {
				return // JSON cannot carry these bytes unchanged
			}
		}
		req := sweepRequest{Ensemble: ensemble, Scenario: scenario, Primary: primary, Second: second, DataCenter: dataCenter}
		if configs != "" {
			req.Configs = strings.Split(configs, ",")
		}
		form := url.Values{}
		for key, v := range map[string]string{"ensemble": ensemble, "scenario": scenario, "primary": primary, "second": second, "data_center": dataCenter} {
			if v != "" {
				form.Set(key, v)
			}
		}
		for _, name := range req.Configs {
			form.Add("config", name)
		}
		q, err := url.ParseQuery(form.Encode())
		if err != nil {
			t.Fatalf("encoded query does not parse: %v", err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}

		getShape, getErr := SweepShape(q, nil)
		postShape, postErr := SweepShape(nil, body)
		if (getErr == nil) != (postErr == nil) {
			t.Fatalf("GET and POST disagree on acceptance: %v vs %v (body %s)", getErr, postErr, body)
		}
		if !reflect.DeepEqual(getShape, postShape) {
			t.Fatalf("GET shape %+v != POST shape %+v", getShape, postShape)
		}
		_, _, _, _, universe, serveErr := s.validateSweep(req)
		if serveErr != nil {
			return
		}
		if getErr != nil {
			t.Fatalf("server accepts a sweep the shape rejects: %v (body %s)", getErr, body)
		}
		if want := universeIdentity(universe); getShape.Identity != want {
			t.Fatalf("shape identity %q, server view universe %q", getShape.Identity, want)
		}
	})
}
