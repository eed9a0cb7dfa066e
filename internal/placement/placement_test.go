package placement

import (
	"math"
	"testing"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/geo"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// fixture builds a 10-realization ensemble over four candidate sites:
//
//   - "p" floods in realizations 7-9 (primary, coastal)
//   - "corr" floods whenever p does (correlated neighbor)
//   - "safe" never floods
//   - "dc" never floods
func fixture(t *testing.T) (*hazard.Ensemble, *assets.Inventory) {
	t.Helper()
	cfg := hazard.OahuScenario()
	cfg.Realizations = 10
	rows := make([][]float64, 10)
	for r := range rows {
		rows[r] = []float64{0, 0, 0, 0}
		if r >= 7 {
			rows[r][0] = 1 // p
			rows[r][1] = 1 // corr
		}
	}
	e, err := hazard.NewEnsembleFromDepths(cfg, []string{"p", "corr", "safe", "dc"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string) assets.Asset {
		return assets.Asset{
			ID: id, Name: id, Type: assets.ControlCenter,
			Location:             geo.Point{Lat: 21.3, Lon: -157.9},
			ControlSiteCandidate: true,
		}
	}
	inv, err := assets.NewInventory([]assets.Asset{mk("p"), mk("corr"), mk("safe"), mk("dc")})
	if err != nil {
		t.Fatal(err)
	}
	return e, inv
}

func TestSearchSecondSitePrefersUncorrelated(t *testing.T) {
	e, inv := fixture(t)
	got, err := SearchSecondSite(Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   "p",
		Scenario:  threat.Hurricane,
	}, "dc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("candidates = %d, want 2 (corr, safe)", len(got))
	}
	if got[0].Placement.Second != "safe" {
		t.Errorf("best second site = %q, want safe", got[0].Placement.Second)
	}
	// The paper's finding in miniature: the uncorrelated site yields
	// 100% green for 6+6+6, the correlated one does not.
	if got[0].Score != 1.0 {
		t.Errorf("best score = %v, want 1.0", got[0].Score)
	}
	if got[1].Score >= got[0].Score {
		t.Errorf("correlated site score %v should be below %v", got[1].Score, got[0].Score)
	}
}

func TestSearchPairsExhaustive(t *testing.T) {
	e, inv := fixture(t)
	got, err := SearchPairs(Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   "p",
		Scenario:  threat.Hurricane,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 candidates for second x 2 remaining for dc = 6 placements.
	if len(got) != 6 {
		t.Fatalf("candidates = %d, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Error("candidates not ranked by score")
		}
	}
	// The best placement pairs the primary with two sites it is not
	// correlated with: "6+6+6" then never loses two sites at once.
	best := got[0]
	if best.Placement.Second == "corr" || best.Placement.DataCenter == "corr" {
		t.Errorf("best placement uses the correlated site: %+v", best.Placement)
	}
	if best.Score != 1.0 {
		t.Errorf("best hurricane-scenario score = %v, want 1.0", best.Score)
	}
}

// TestFullCompoundThreatCapsEveryPlacement mirrors the paper's
// conclusion: under hurricane + intrusion + isolation, no placement of
// "6+6+6" can guarantee green — losing the primary to flooding plus
// one isolation always leaves fewer than two sites.
func TestFullCompoundThreatCapsEveryPlacement(t *testing.T) {
	e, inv := fixture(t)
	got, err := SearchPairs(Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   "p",
		Scenario:  threat.HurricaneIntrusionIsolation,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c.Score > 0.7 {
			t.Errorf("placement %+v scores %v > 0.7 under the full compound threat", c.Placement, c.Score)
		}
	}
}

func TestCustomObjectiveAndBuild(t *testing.T) {
	e, inv := fixture(t)
	got, err := SearchSecondSite(Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   "p",
		Scenario:  threat.Hurricane,
		Objective: AvailabilityWeighted,
		Build: func(p topology.Placement) topology.Config {
			return topology.NewConfig22(p.Primary, p.Second)
		},
	}, "dc")
	if err != nil {
		t.Fatal(err)
	}
	// For "2-2" under hurricane only: with "safe" backup the red mass
	// converts to orange (weight 0.5); with "corr" it stays red.
	var safeScore, corrScore float64
	for _, c := range got {
		switch c.Placement.Second {
		case "safe":
			safeScore = c.Score
		case "corr":
			corrScore = c.Score
		}
	}
	if safeScore != 0.7+0.5*0.3 {
		t.Errorf("safe-backup score = %v, want 0.85", safeScore)
	}
	if corrScore != 0.7 {
		t.Errorf("corr-backup score = %v, want 0.7", corrScore)
	}
}

// TestRankDeterministic documents rank's ordering contract: score
// descending, ties broken by second site then data center ascending.
// Because (Second, DataCenter) is unique per search, the order is total
// — every permutation of the same candidate set ranks identically.
func TestRankDeterministic(t *testing.T) {
	mk := func(second, dc string, score float64) Candidate {
		return Candidate{
			Placement: topology.Placement{Primary: "p", Second: second, DataCenter: dc},
			Score:     score,
		}
	}
	want := []Candidate{
		mk("a", "b", 0.9),
		mk("a", "c", 0.5), // three-way score tie: ordered by (second, dc)
		mk("b", "a", 0.5),
		mk("b", "c", 0.5),
		mk("c", "a", 0.1),
	}
	perms := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{3, 4, 0, 2, 1},
	}
	for _, perm := range perms {
		in := make([]Candidate, len(want))
		for i, j := range perm {
			in[i] = want[j]
		}
		Rank(in)
		for i := range want {
			if in[i].Placement != want[i].Placement {
				t.Errorf("perm %v rank %d: %+v, want %+v", perm, i, in[i].Placement, want[i].Placement)
			}
		}
	}
}

// TestRankNaNSortsLast documents Rank's NaN contract: candidates with
// NaN scores sort after every real score (including -Inf), and among
// themselves fall back to the (Second, DataCenter) tie-break, so a
// degenerate objective cannot poison the ordering of the rest.
func TestRankNaNSortsLast(t *testing.T) {
	nan := math.NaN()
	mk := func(second, dc string, score float64) Candidate {
		return Candidate{
			Placement: topology.Placement{Primary: "p", Second: second, DataCenter: dc},
			Score:     score,
		}
	}
	want := []Candidate{
		mk("a", "b", 0.9),
		mk("c", "d", 0.1),
		mk("d", "e", math.Inf(-1)),
		mk("a", "c", nan), // NaN block last, ordered by (second, dc)
		mk("b", "a", nan),
	}
	perms := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{3, 0, 4, 2, 1},
	}
	for _, perm := range perms {
		in := make([]Candidate, len(want))
		for i, j := range perm {
			in[i] = want[j]
		}
		Rank(in)
		for i := range want {
			if in[i].Placement != want[i].Placement {
				t.Errorf("perm %v rank %d: %+v, want %+v", perm, i, in[i].Placement, want[i].Placement)
			}
		}
	}
}

func TestObjectives(t *testing.T) {
	p := stats.NewProfile()
	p.AddN(opstate.Green, 6)
	p.AddN(opstate.Orange, 2)
	p.AddN(opstate.Red, 1)
	p.AddN(opstate.Gray, 1)
	o := analysis.Outcome{Profile: p}
	if got := GreenProbability(o); got != 0.6 {
		t.Errorf("GreenProbability = %v, want 0.6", got)
	}
	if got := AvailabilityWeighted(o); got != 0.7 {
		t.Errorf("AvailabilityWeighted = %v, want 0.7", got)
	}
}

func TestValidation(t *testing.T) {
	e, inv := fixture(t)
	base := Request{Ensemble: e, Inventory: inv, Primary: "p", Scenario: threat.Hurricane}
	tests := []struct {
		name   string
		mutate func(*Request)
	}{
		{"nil ensemble", func(r *Request) { r.Ensemble = nil }},
		{"nil inventory", func(r *Request) { r.Inventory = nil }},
		{"no primary", func(r *Request) { r.Primary = "" }},
		{"unknown primary", func(r *Request) { r.Primary = "zzz" }},
		{"bad scenario", func(r *Request) { r.Scenario = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req := base
			tt.mutate(&req)
			if _, err := SearchPairs(req); err == nil {
				t.Error("SearchPairs should fail")
			}
		})
	}
	if _, err := SearchSecondSite(base, "zzz"); err == nil {
		t.Error("unknown data center should fail")
	}
}

// TestCandidateEnumerationMatchesSearch: the exported enumeration
// returns exactly the candidate set (and order, pre-ranking) that the
// batch searches evaluate, so alternative evaluation paths built on it
// cover the same space.
func TestCandidateEnumerationMatchesSearch(t *testing.T) {
	e, inv := fixture(t)
	req := Request{Ensemble: e, Inventory: inv, Primary: "p", Scenario: threat.Hurricane}

	pairs, err := CandidatePairs(req)
	if err != nil {
		t.Fatal(err)
	}
	searched, err := SearchPairs(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(searched) {
		t.Fatalf("CandidatePairs = %d placements, SearchPairs evaluated %d", len(pairs), len(searched))
	}
	seen := make(map[topology.Placement]bool, len(pairs))
	for _, p := range pairs {
		seen[p] = true
	}
	for _, c := range searched {
		if !seen[c.Placement] {
			t.Errorf("SearchPairs evaluated %+v, missing from CandidatePairs", c.Placement)
		}
	}

	seconds, err := CandidateSecondSites(req, "dc")
	if err != nil {
		t.Fatal(err)
	}
	if len(seconds) != 2 {
		t.Fatalf("CandidateSecondSites = %d, want 2", len(seconds))
	}
	for _, p := range seconds {
		if p.DataCenter != "dc" || p.Second == "p" || p.Second == "dc" {
			t.Errorf("bad second-site candidate %+v", p)
		}
	}

	// Validation still applies on the exported enumeration.
	if _, err := CandidatePairs(Request{Inventory: inv, Primary: "p"}); err == nil {
		t.Error("CandidatePairs with nil ensemble must fail")
	}
	if _, err := CandidateSecondSites(req, "nope"); err == nil {
		t.Error("CandidateSecondSites with unknown data center must fail")
	}
}
