package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/seismic"
	"compoundthreat/internal/serve"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// readReq is one distinct read the mix sends: its wire form plus the
// decoded query the oracle re-derives it from.
type readReq struct {
	Kind   string // sweep, sweep_post, figure, placement
	Method string
	Target string // path and query
	Body   []byte

	Ensemble   string
	Scenario   string
	Configs    []string // nil = the five standard configurations
	Place      topology.Placement
	Figure     int
	DataCenter string // placement: fixed data center, "" = rank pairs
	Objective  string // placement: green or weighted
	Limit      int    // placement: 0 = whole ranking
}

func (r readReq) key() string { return r.Method + " " + r.Target + "\n" + string(r.Body) }

// newRequest renders the read against base.
func (r readReq) newRequest(base string) (*http.Request, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.Target, body)
	if err != nil {
		return nil, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// The read space. Every view it can touch is enumerable: four fixed
// placements sharing one primary, config subsets taken in standard
// order (so a subset's universe is a prefix of primary, second, data
// center), and placement rankings for one primary with or without a
// fixed data center. That is 7 sweep universes plus 2 placement
// universes per ensemble — 18 views, under the default 64-entry view
// cache, so a warmed read-hot run never compiles (checked at start by
// distinctViews).
var (
	readEnsembles  = []string{"hurricane", "quake"}
	readScenarios  = []string{"hurricane", "intrusion", "isolation", "both"}
	readPlacements = []topology.Placement{
		{Primary: assets.HonoluluCC, Second: assets.Waiau, DataCenter: assets.DRFortress},
		{Primary: assets.HonoluluCC, Second: assets.Kahe, DataCenter: assets.DRFortress},
		{Primary: assets.HonoluluCC, Second: assets.Waiau, DataCenter: assets.AlohaNAP},
		{Primary: assets.HonoluluCC, Second: assets.Kahe, DataCenter: assets.AlohaNAP},
	}
	readConfigSubsets = [][]string{nil, {"6+6+6"}, {"2", "2-2"}, {"6", "6-6", "6+6+6"}, {"2-2", "6-6"}, {"2", "6"}}
)

// makeReadMix draws the seed's 64 distinct reads: every sweep of the
// read space once — both ensembles × four placements × six
// configuration subsets, 48 sweeps, a seeded half of them sent as POST
// — all 12 figure reads, and one placement ranking per ranking view
// (both ensembles, with and without a fixed data center). The shares
// follow the serving mix recorded in EXPERIMENTS.md ("Serving: the
// analysis pipeline behind an HTTP endpoint"): 2,000 warm sweeps to
// 500 figure queries, 4:1. Its 200 cold sweeps have no place in a
// warmed mix, and it holds no placement rankings, so rankings get the
// smallest share that still reads each ranking view once; the recorded
// mix does not say GET or POST, so the sweeps split evenly. Every seed
// reads the same views the same number of times, so each seed's mix
// costs about the same and the router splits it over its workers the
// same way; seeds vary which half of the sweeps is POST, each read's
// scenario, and which rankings are by weighted availability or cut to
// the top 3.
func makeReadMix(seed int64) []readReq {
	rng := rand.New(rand.NewSource(seed))
	scenario := func() string { return readScenarios[rng.Intn(len(readScenarios))] }
	nSweeps := len(readEnsembles) * len(readPlacements) * len(readConfigSubsets)
	post := rng.Perm(nSweeps)
	var out []readReq
	k := 0
	for _, ens := range readEnsembles {
		for _, p := range readPlacements {
			for _, configs := range readConfigSubsets {
				out = append(out, sweepRead(ens, scenario(), p, configs, post[k] < nSweeps/2))
				k++
			}
		}
	}
	for _, ens := range readEnsembles {
		for id := 6; id <= 11; id++ {
			out = append(out, figureRead(ens, id))
		}
	}
	// Each ranking view gets one of the four (objective, limit) pairs.
	styles := rng.Perm(4)
	k = 0
	for _, ens := range readEnsembles {
		for _, dc := range []string{"", assets.DRFortress} {
			obj, limit := "green", 0
			if styles[k]&1 != 0 {
				obj = "weighted"
			}
			if styles[k]&2 != 0 {
				limit = 3
			}
			out = append(out, placementRead(ens, scenario(), dc, obj, limit))
			k++
		}
	}
	return out
}

func sweepRead(ens, sc string, p topology.Placement, configs []string, post bool) readReq {
	r := readReq{Kind: "sweep", Method: http.MethodGet, Ensemble: ens, Scenario: sc, Configs: configs, Place: p}
	if post {
		body, _ := json.Marshal(map[string]any{
			"ensemble": ens, "scenario": sc, "configs": configs,
			"primary": p.Primary, "second": p.Second, "data_center": p.DataCenter,
		})
		r.Kind, r.Method, r.Target, r.Body = "sweep_post", http.MethodPost, "/v1/sweep", body
		return r
	}
	q := url.Values{"ensemble": {ens}, "scenario": {sc}, "primary": {p.Primary}, "second": {p.Second}, "data_center": {p.DataCenter}}
	for _, c := range configs {
		q.Add("config", c)
	}
	r.Target = "/v1/sweep?" + q.Encode()
	return r
}

func figureRead(ens string, id int) readReq {
	return readReq{Kind: "figure", Method: http.MethodGet, Ensemble: ens, Figure: id,
		Target: "/v1/figure/" + strconv.Itoa(id) + "?" + url.Values{"ensemble": {ens}}.Encode()}
}

func placementRead(ens, sc, dc, obj string, limit int) readReq {
	q := url.Values{"ensemble": {ens}, "scenario": {sc}, "primary": {assets.HonoluluCC}, "objective": {obj}}
	if dc != "" {
		q.Set("data_center", dc)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	return readReq{Kind: "placement", Method: http.MethodGet, Ensemble: ens, Scenario: sc,
		Place: topology.Placement{Primary: assets.HonoluluCC}, DataCenter: dc, Objective: obj, Limit: limit,
		Target: "/v1/placement?" + q.Encode()}
}

// shape derives the read's routing identity with the same serve code
// the router and the workers use.
func (r readReq) shape() (serve.QueryShape, error) {
	u, err := url.Parse(r.Target)
	if err != nil {
		return serve.QueryShape{}, err
	}
	switch r.Kind {
	case "sweep":
		return serve.SweepShape(u.Query(), nil)
	case "sweep_post":
		return serve.SweepShape(u.Query(), r.Body)
	case "figure":
		return serve.FigureShape(strconv.Itoa(r.Figure), u.Query())
	default:
		return serve.PlacementShape(u.Query())
	}
}

// distinctViews counts the compiled views the mix touches.
func distinctViews(reads []readReq) (int, error) {
	views := make(map[string]bool)
	for _, r := range reads {
		s, err := r.shape()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.Target, err)
		}
		views[s.Ensemble+"\x1f"+s.Identity] = true
	}
	return len(views), nil
}

// configsFor materializes the read's configurations exactly as the
// sweep API defines the names.
func configsFor(p topology.Placement, names []string) ([]topology.Config, error) {
	if names == nil {
		return topology.StandardConfigs(p)
	}
	out := make([]topology.Config, len(names))
	for i, n := range names {
		switch n {
		case "2":
			out[i] = topology.NewConfig2(p.Primary)
		case "2-2":
			out[i] = topology.NewConfig22(p.Primary, p.Second)
		case "6":
			out[i] = topology.NewConfig6(p.Primary)
		case "6-6":
			out[i] = topology.NewConfig66(p.Primary, p.Second)
		case "6+6+6":
			out[i] = topology.NewConfig666(p.Primary, p.Second, p.DataCenter)
		default:
			return nil, fmt.Errorf("unknown config %q", n)
		}
	}
	return out, nil
}

// oracle holds the startup ensembles regenerated in-process with the
// targets' flags, an in-process server over them for reference bodies
// and replays, and the batch paths the references are checked against.
type oracle struct {
	inv       *assets.Inventory
	hurricane *hazard.Ensemble
	quake     *seismic.Ensemble
	ens       map[string]serve.Ensemble
	srv       *serve.Server
	cs        *analysis.CaseStudy

	planTime time.Duration // hazard.NewGenerator for the Oahu topology
	genTime  time.Duration // hurricane GenerateCtx, all realizations
}

func newOracle() (*oracle, error) {
	o := &oracle{inv: assets.Oahu()}
	t := time.Now()
	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), o.inv)
	o.planTime = time.Since(t)
	if err != nil {
		return nil, err
	}
	hcfg := hazard.OahuScenario()
	hcfg.Realizations, hcfg.Seed = startupRealizations, startupSeed
	t = time.Now()
	o.hurricane, err = gen.Generate(hcfg)
	o.genTime = time.Since(t)
	if err != nil {
		return nil, err
	}
	qcfg := seismic.OahuScenario()
	qcfg.Realizations, qcfg.Seed = startupRealizations, startupSeed
	if o.quake, err = seismic.Generate(qcfg, o.inv); err != nil {
		return nil, err
	}
	o.ens = map[string]serve.Ensemble{"hurricane": o.hurricane, "quake": o.quake}
	// One evaluation worker, so a replayed handler's time splits into
	// its sequential engine cells plus the serving layer's own work.
	if o.srv, err = serve.New(o.ens, o.inv, serve.Options{Workers: 1}); err != nil {
		return nil, err
	}
	if o.cs, err = analysis.NewCaseStudy(o.hurricane); err != nil {
		return nil, err
	}
	return o, nil
}

// handle runs the read through the in-process server.
func (o *oracle) handle(r readReq) (*httptest.ResponseRecorder, error) {
	req, err := r.newRequest("")
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	o.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: status %d: %s", r.Target, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// reference returns the read's expected body after checking it against
// the batch path.
func (o *oracle) reference(r readReq) ([]byte, error) {
	rec, err := o.handle(r)
	if err != nil {
		return nil, err
	}
	body := rec.Body.Bytes()
	if err := o.verify(r, body); err != nil {
		return nil, fmt.Errorf("%s %s: %w", r.Method, r.Target, err)
	}
	return body, nil
}

type outcomeBody struct {
	Config string         `json:"config"`
	Counts map[string]int `json:"counts"`
}

// verify checks a reference body against the batch path: sweeps
// against analysis.RunConfigs, hurricane figures against
// CaseStudy.EvaluateFigure (quake figures against RunConfigs over the
// figure's configurations), placement rankings against
// placement.SearchPairs / SearchSecondSite.
func (o *oracle) verify(r readReq, body []byte) error {
	e := o.ens[r.Ensemble]
	switch r.Kind {
	case "sweep", "sweep_post", "figure":
		var got struct {
			Outcomes []outcomeBody `json:"outcomes"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := o.batchOutcomes(r, e)
		if err != nil {
			return err
		}
		if len(got.Outcomes) != len(want) {
			return fmt.Errorf("%d outcomes, batch path has %d", len(got.Outcomes), len(want))
		}
		for i, w := range want {
			g := got.Outcomes[i]
			if g.Config != w.Config.Name {
				return fmt.Errorf("outcome %d is %q, batch path %q", i, g.Config, w.Config.Name)
			}
			for _, st := range opstate.States() {
				if g.Counts[st.String()] != w.Profile.Count(st) {
					return fmt.Errorf("%s %s: %d, batch path %d", g.Config, st, g.Counts[st.String()], w.Profile.Count(st))
				}
			}
		}
		return nil
	default:
		return o.verifyPlacement(r, e, body)
	}
}

func (o *oracle) batchOutcomes(r readReq, e serve.Ensemble) ([]analysis.Outcome, error) {
	if r.Kind == "figure" {
		fig, err := analysis.FigureByID(r.Figure)
		if err != nil {
			return nil, err
		}
		if r.Ensemble == "hurricane" {
			res, err := o.cs.EvaluateFigure(fig)
			return res.Outcomes, err
		}
		configs, err := topology.StandardConfigs(fig.Placement)
		if err != nil {
			return nil, err
		}
		return analysis.RunConfigs(e, configs, fig.Scenario)
	}
	sc, err := threat.ParseScenario(r.Scenario)
	if err != nil {
		return nil, err
	}
	configs, err := configsFor(r.Place, r.Configs)
	if err != nil {
		return nil, err
	}
	return analysis.RunConfigs(e, configs, sc)
}

// pairsRequest is the batch placement request equivalent to the read.
func (o *oracle) pairsRequest(r readReq) (placement.Request, error) {
	sc, err := threat.ParseScenario(r.Scenario)
	if err != nil {
		return placement.Request{}, err
	}
	req := placement.Request{Ensemble: o.ens[r.Ensemble], Inventory: o.inv, Primary: r.Place.Primary, Scenario: sc}
	if r.Objective == "weighted" {
		req.Objective = placement.AvailabilityWeighted
	}
	return req, nil
}

// searchPairs runs the batch ranking the read names.
func (o *oracle) searchPairs(r readReq, workers int) ([]placement.Candidate, error) {
	req, err := o.pairsRequest(r)
	if err != nil {
		return nil, err
	}
	req.Workers = workers
	if r.DataCenter != "" {
		return placement.SearchSecondSite(req, r.DataCenter)
	}
	return placement.SearchPairs(req)
}

func (o *oracle) verifyPlacement(r readReq, e serve.Ensemble, body []byte) error {
	var got struct {
		Total      int `json:"total_candidates"`
		Candidates []struct {
			Placement struct {
				Primary    string `json:"primary"`
				Second     string `json:"second"`
				DataCenter string `json:"data_center"`
			} `json:"placement"`
			Score float64 `json:"score"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want, err := o.searchPairs(r, 0)
	if err != nil {
		return err
	}
	if got.Total != len(want) {
		return fmt.Errorf("%d candidates, batch path has %d", got.Total, len(want))
	}
	n := len(want)
	if r.Limit > 0 && r.Limit < n {
		n = r.Limit
	}
	if len(got.Candidates) != n {
		return fmt.Errorf("%d ranked candidates, want %d", len(got.Candidates), n)
	}
	for i := 0; i < n; i++ {
		g, w := got.Candidates[i], want[i]
		gp := topology.Placement{Primary: g.Placement.Primary, Second: g.Placement.Second, DataCenter: g.Placement.DataCenter}
		if gp != w.Placement || g.Score != w.Score {
			return fmt.Errorf("rank %d: %v score %v, batch path %v score %v", i, gp, g.Score, w.Placement, w.Score)
		}
	}
	return nil
}
