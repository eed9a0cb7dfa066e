package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"time"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/geo"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/store"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Writer-cycle shape. Each cycle's ensemble is small enough that a
// cycle ends well inside its period (cyclePeriod), and the
// K-site search over five candidates finishes in one exact pass.
const (
	cycleRealizations = 200
	searchK           = 2
	pollInterval      = 2 * time.Millisecond
)

// Upload documents, mirroring the write API's schema (docs/API.md).
type topologyDoc struct {
	Name    string     `json:"name"`
	Terrain terrainDoc `json:"terrain"`
	Assets  []assetDoc `json:"assets"`
}

type terrainDoc struct {
	Origin                  geo.Point   `json:"origin"`
	Coastline               []geo.Point `json:"coastline"`
	CoastalRampSlope        float64     `json:"coastal_ramp_slope"`
	CoastalPlainWidthMeters float64     `json:"coastal_plain_width_meters"`
	InlandSlope             float64     `json:"inland_slope"`
	OffshoreSlope           float64     `json:"offshore_slope"`
}

type assetDoc struct {
	ID                    string    `json:"id"`
	Type                  string    `json:"type"`
	Location              geo.Point `json:"location"`
	GroundElevationMeters float64   `json:"ground_elevation_meters"`
	ControlSiteCandidate  bool      `json:"control_site_candidate"`
}

type paramsDoc struct {
	Topology     string       `json:"topology"`
	Realizations int          `json:"realizations"`
	Seed         int64        `json:"seed"`
	Base         baseStormDoc `json:"base"`
	Spread       spreadDoc    `json:"spread"`
}

type baseStormDoc struct {
	ReferencePoint     geo.Point `json:"reference_point"`
	HeadingDeg         float64   `json:"heading_deg"`
	ForwardSpeedMS     float64   `json:"forward_speed_ms"`
	DurationHours      float64   `json:"duration_hours"`
	CentralPressureHPa float64   `json:"central_pressure_hpa"`
	RMaxMeters         float64   `json:"rmax_meters"`
	HollandB           float64   `json:"holland_b"`
}

type spreadDoc struct {
	TrackOffsetSigmaMeters float64 `json:"track_offset_sigma_meters"`
	AlongTrackSigmaMeters  float64 `json:"along_track_sigma_meters"`
	HeadingSigmaDeg        float64 `json:"heading_sigma_deg"`
	PressureSigmaHPa       float64 `json:"pressure_sigma_hpa"`
	RMaxSigmaFraction      float64 `json:"rmax_sigma_fraction"`
	SpeedSigmaFraction     float64 `json:"speed_sigma_fraction"`
}

// cycleInput is one writer cycle's generated inputs.
type cycleInput struct {
	n      int
	client string // X-Client-ID, rotated per cycle so no quota fills
	topo   topologyDoc
	params paramsDoc // Topology filled in from the upload response
	place  topology.Placement
}

// makeCycle derives cycle n's inputs from the seed: a small island
// whose five candidate sites' ground elevations are jittered (so every
// cycle uploads new content and floods differently) and a storm seed
// of its own.
func makeCycle(seed int64, n int) cycleInput {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	jit := func(base float64) float64 { return base * (0.7 + 0.6*rng.Float64()) }
	doc := topologyDoc{
		Name: fmt.Sprintf("bench-island-%d-%d", seed, n),
		Terrain: terrainDoc{
			Origin: geo.Point{Lat: 21, Lon: -158},
			Coastline: []geo.Point{
				{Lat: 20.91, Lon: -158.097}, {Lat: 20.91, Lon: -157.903},
				{Lat: 21.09, Lon: -157.903}, {Lat: 21.09, Lon: -158.097},
			},
			CoastalRampSlope: 0.004, CoastalPlainWidthMeters: 3000,
			InlandSlope: 0.02, OffshoreSlope: 0.02,
		},
		Assets: []assetDoc{
			{ID: "south-cc", Type: "control-center", Location: geo.Point{Lat: 20.913, Lon: -158}, GroundElevationMeters: jit(0.8), ControlSiteCandidate: true},
			{ID: "east-cc", Type: "control-center", Location: geo.Point{Lat: 21.0, Lon: -157.906}, GroundElevationMeters: jit(1.2), ControlSiteCandidate: true},
			{ID: "west-cc", Type: "control-center", Location: geo.Point{Lat: 20.95, Lon: -158.094}, GroundElevationMeters: jit(1.0), ControlSiteCandidate: true},
			{ID: "north-dc", Type: "data-center", Location: geo.Point{Lat: 21.087, Lon: -158.02}, GroundElevationMeters: jit(1.5), ControlSiteCandidate: true},
			{ID: "inland-dc", Type: "data-center", Location: geo.Point{Lat: 21.0, Lon: -158}, GroundElevationMeters: jit(40), ControlSiteCandidate: true},
		},
	}
	params := paramsDoc{
		Realizations: cycleRealizations,
		Seed:         rng.Int63n(1 << 40),
		Base: baseStormDoc{
			ReferencePoint: geo.Point{Lat: 20.55, Lon: -158.35}, HeadingDeg: 315, ForwardSpeedMS: 5,
			DurationHours: 24, CentralPressureHPa: 955, RMaxMeters: 40000, HollandB: 1.6,
		},
		Spread: spreadDoc{
			TrackOffsetSigmaMeters: 30000, AlongTrackSigmaMeters: 15000, HeadingSigmaDeg: 5,
			PressureSigmaHPa: 8, RMaxSigmaFraction: 0.2, SpeedSigmaFraction: 0.15,
		},
	}
	return cycleInput{
		n:      n,
		client: fmt.Sprintf("loadbench-writer-%d-%d", seed, n),
		topo:   doc,
		params: params,
		place:  topology.Placement{Primary: "south-cc", Second: "east-cc", DataCenter: "inland-dc"},
	}
}

func (ci cycleInput) candidates() []string {
	ids := make([]string, len(ci.topo.Assets))
	for i, a := range ci.topo.Assets {
		ids[i] = a.ID
	}
	sort.Strings(ids)
	return ids
}

// cycleResult is what one cycle observed.
type cycleResult struct {
	in       cycleInput
	start    time.Time
	total    time.Duration // upload start → search done
	genWall  time.Duration // ensemble submit → done
	jobWait  time.Duration // ensemble submit → first progress
	ensemble string
	sweep    []byte // cold sweep body
	sites    []string
	score    float64
	err      error
}

// writer runs closed-loop cycles until stop closes. results belongs to
// the goroutine running run until run returns.
type writer struct {
	c       *http.Client
	base    string
	seed    int64
	results []cycleResult
}

// cyclePeriod paces the writer: cycle n starts n periods after the
// first, or as soon as cycle n-1 ends if that is later. A fixed write
// rate keeps the work of a run — the ensembles stored, the targets'
// peak memory, the reader's share of the CPU — the same however fast
// the host runs; an unpaced writer did a third more cycles on a fast
// stretch of the VM than on a slow one, and its peak memory followed.
// A cycle takes 70–120 ms there, so the writer is busy about a third of
// the time.
const cyclePeriod = 250 * time.Millisecond

func (w *writer) run(stop <-chan struct{}) {
	start := time.Now()
	for n := 0; ; n++ {
		due := time.NewTimer(time.Until(start.Add(time.Duration(n) * cyclePeriod)))
		select {
		case <-stop:
			due.Stop()
			return
		case <-due.C:
		}
		select {
		case <-stop:
			return
		default:
		}
		w.results = append(w.results, w.cycle(makeCycle(w.seed, n)))
	}
}

// post sends body as JSON under the cycle's client id and decodes the
// answer, which must carry wantStatus.
func (w *writer) post(client, path string, body any, wantStatus int) (map[string]any, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", client)
	out, _, err := w.do(req, wantStatus)
	return out, err
}

// get fetches path, which must answer 200, and returns the decoded
// and the raw body.
func (w *writer) get(path string) (map[string]any, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	return w.do(req, http.StatusOK)
}

func (w *writer) do(req *http.Request, wantStatus int) (map[string]any, []byte, error) {
	status, body, err := send(w.c, req)
	if err != nil {
		return nil, nil, err
	}
	if status != wantStatus {
		return nil, nil, fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.URL.Path, status, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	return out, body, nil
}

// poll polls a job until it leaves running, calling progress on every
// response.
func (w *writer) poll(path string, progress func(map[string]any)) (map[string]any, error) {
	deadline := time.Now().Add(requestTimeout * 4)
	for time.Now().Before(deadline) {
		r, _, err := w.get(path)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(r)
		}
		switch r["status"] {
		case "running":
			time.Sleep(pollInterval)
		case "done":
			return r, nil
		default:
			return nil, fmt.Errorf("%s: job %v: %v", path, r["status"], r["error"])
		}
	}
	return nil, fmt.Errorf("%s: job still running after %v", path, requestTimeout*4)
}

// cycle runs one upload → generate → cold sweep → K-site search cycle.
func (w *writer) cycle(in cycleInput) (res cycleResult) {
	res.in = in
	res.start = time.Now()
	defer func() { res.total = time.Since(res.start) }()
	up, err := w.post(in.client, "/v1/topologies", in.topo, http.StatusCreated)
	if err != nil {
		res.err = err
		return
	}
	in.params.Topology, _ = up["topology_id"].(string)
	res.in = in
	submitted := time.Now()
	sub, err := w.post(in.client, "/v1/ensembles", in.params, http.StatusAccepted)
	if err != nil {
		res.err = err
		return
	}
	res.ensemble, _ = sub["ensemble"].(string)
	job, err := w.poll("/v1/ensembles/jobs/"+fmt.Sprint(sub["job_id"]), func(r map[string]any) {
		if res.jobWait != 0 {
			return
		}
		p, _ := r["progress"].(map[string]any)
		if done, _ := p["realizations_done"].(float64); done > 0 || r["status"] != "running" {
			res.jobWait = time.Since(submitted)
		}
	})
	res.genWall = time.Since(submitted)
	if err != nil {
		res.err = err
		return
	}
	if rr, _ := job["result"].(map[string]any); rr["ensemble"] != res.ensemble {
		res.err = fmt.Errorf("generation job result names %v, submit named %s", rr["ensemble"], res.ensemble)
		return
	}
	q := url.Values{"ensemble": {res.ensemble}, "scenario": {"both"},
		"primary": {in.place.Primary}, "second": {in.place.Second}, "data_center": {in.place.DataCenter}}
	if _, res.sweep, err = w.get("/v1/sweep?" + q.Encode()); err != nil {
		res.err = err
		return
	}
	ss, err := w.post(in.client, "/v1/placement/search", map[string]any{
		"ensemble": res.ensemble, "scenario": "both", "k": searchK, "exact": true, "candidates": in.candidates(),
	}, http.StatusAccepted)
	if err != nil {
		res.err = err
		return
	}
	done, err := w.poll("/v1/placement/jobs/"+fmt.Sprint(ss["job_id"]), nil)
	if err != nil {
		res.err = err
		return
	}
	result, _ := done["result"].(map[string]any)
	sites, _ := result["sites"].([]any)
	for _, s := range sites {
		site, _ := s.(string)
		res.sites = append(res.sites, site)
	}
	res.score, _ = result["score"].(float64)
	return
}

// cycleReplay is the in-process re-derivation of one cycle, with the
// time each layer took on the cycle's exact inputs.
type cycleReplay struct {
	plan, generate, put, compile, searchK time.Duration
	putBytes                              int
	rows, distinct                        int
}

// replayCycle regenerates the cycle's ensemble in-process with
// hazard.Generate, re-derives the cold sweep's counts with the engine
// and the search result with placement.SearchKCtx, and compares both
// with what the server answered. Payloads are committed to st so the
// store's put cost is measured on the cycle's bytes.
func replayCycle(ctx context.Context, r cycleResult, st *store.Store) (cycleReplay, error) {
	var rep cycleReplay
	in := r.in
	tcfg := terrain.Config{
		Name: in.topo.Name, Origin: in.topo.Terrain.Origin, Coastline: in.topo.Terrain.Coastline,
		CoastalRampSlope: in.topo.Terrain.CoastalRampSlope, CoastalPlainWidthMeters: in.topo.Terrain.CoastalPlainWidthMeters,
		InlandSlope: in.topo.Terrain.InlandSlope, OffshoreSlope: in.topo.Terrain.OffshoreSlope,
	}
	types := map[string]assets.Type{"control-center": assets.ControlCenter, "data-center": assets.DataCenter}
	list := make([]assets.Asset, len(in.topo.Assets))
	for i, a := range in.topo.Assets {
		list[i] = assets.Asset{ID: a.ID, Name: a.ID, Type: types[a.Type], Location: a.Location,
			GroundElevationMeters: a.GroundElevationMeters, ControlSiteCandidate: a.ControlSiteCandidate}
	}
	t := time.Now()
	tm, err := terrain.New(tcfg)
	if err != nil {
		return rep, err
	}
	inv, err := assets.NewInventory(list)
	if err != nil {
		return rep, err
	}
	gen, err := hazard.NewGenerator(tm, surge.DefaultParams(), inv)
	rep.plan = time.Since(t)
	if err != nil {
		return rep, err
	}
	p := in.params
	cfg := hazard.EnsembleConfig{
		Realizations: p.Realizations, Seed: p.Seed, FloodThresholdMeters: hazard.DefaultFloodThresholdMeters,
		Base: hazard.BaseStorm{
			ReferencePoint: p.Base.ReferencePoint, HeadingDeg: p.Base.HeadingDeg, ForwardSpeedMS: p.Base.ForwardSpeedMS,
			Duration:           time.Duration(p.Base.DurationHours * float64(time.Hour)),
			CentralPressureHPa: p.Base.CentralPressureHPa, RMaxMeters: p.Base.RMaxMeters, HollandB: p.Base.HollandB,
		},
		Spread: hazard.Perturbation{
			TrackOffsetSigmaMeters: p.Spread.TrackOffsetSigmaMeters, AlongTrackSigmaMeters: p.Spread.AlongTrackSigmaMeters,
			HeadingSigmaDeg: p.Spread.HeadingSigmaDeg, PressureSigmaHPa: p.Spread.PressureSigmaHPa,
			RMaxSigmaFraction: p.Spread.RMaxSigmaFraction, SpeedSigmaFraction: p.Spread.SpeedSigmaFraction,
		},
	}
	t = time.Now()
	e, err := gen.GenerateCtx(ctx, cfg)
	rep.generate = time.Since(t)
	if err != nil {
		return rep, err
	}

	topoBytes, err := json.Marshal(in.topo)
	if err != nil {
		return rep, err
	}
	var ensBytes bytes.Buffer
	if err := e.WriteJSON(&ensBytes); err != nil {
		return rep, err
	}
	t = time.Now()
	if _, err := st.Put("topology", store.ContentID(topoBytes), topoBytes); err != nil {
		return rep, err
	}
	if _, err := st.Put("ensemble", store.ContentID(ensBytes.Bytes()), ensBytes.Bytes()); err != nil {
		return rep, err
	}
	rep.put = time.Since(t)
	rep.putBytes = len(topoBytes) + ensBytes.Len()

	configs, err := topology.StandardConfigs(in.place)
	if err != nil {
		return rep, err
	}
	universe := []string{in.place.Primary, in.place.Second, in.place.DataCenter}
	t = time.Now()
	m, err := engine.NewFailureMatrix(e, universe)
	if err != nil {
		return rep, err
	}
	cm := engine.Compress(m, 1)
	rep.compile = time.Since(t)
	rep.rows, rep.distinct = cm.Rows(), cm.DistinctRows()
	var got struct {
		Ensemble string        `json:"ensemble"`
		Outcomes []outcomeBody `json:"outcomes"`
	}
	if err := json.Unmarshal(r.sweep, &got); err != nil {
		return rep, err
	}
	if got.Ensemble != r.ensemble || len(got.Outcomes) != len(configs) {
		return rep, fmt.Errorf("cycle %d: cold sweep names %q with %d outcomes", in.n, got.Ensemble, len(got.Outcomes))
	}
	capability := threat.HurricaneIntrusionIsolation.Capability()
	for i, c := range configs {
		prof, err := engine.CellProfileCompressed(cm, c, capability, 1)
		if err != nil {
			return rep, err
		}
		for _, s := range opstate.States() {
			if g := got.Outcomes[i].Counts[s.String()]; g != prof.Count(s) {
				return rep, fmt.Errorf("cycle %d: %s %s = %d, regenerated %d", in.n, c.Name, s, g, prof.Count(s))
			}
		}
	}
	t = time.Now()
	kres, err := placement.SearchKCtx(ctx, placement.KRequest{
		Ensemble: e, Candidates: in.candidates(), K: searchK, Scenario: threat.HurricaneIntrusionIsolation,
		Weights: placement.GreenWeights, Exact: true, Workers: 1,
	})
	rep.searchK = time.Since(t)
	if err != nil {
		return rep, err
	}
	if fmt.Sprint(kres.Sites) != fmt.Sprint(r.sites) || kres.Score != r.score {
		return rep, fmt.Errorf("cycle %d: search chose %v score %v, regenerated %v score %v", in.n, r.sites, r.score, kres.Sites, kres.Score)
	}
	return rep, nil
}
