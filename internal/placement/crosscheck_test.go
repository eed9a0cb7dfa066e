package placement

// Cross-checks of the matrix-backed parallel search against the plain
// sequential reference: identical ranking, scores, and profiles.

import (
	"runtime"
	"testing"

	"compoundthreat/internal/opstate"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

func sameCandidates(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Placement != want[i].Placement {
			t.Errorf("%s rank %d: placement %+v, want %+v", label, i, got[i].Placement, want[i].Placement)
		}
		if got[i].Score != want[i].Score {
			t.Errorf("%s rank %d: score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
		for _, s := range opstate.States() {
			if got[i].Outcome.Profile.Count(s) != want[i].Outcome.Profile.Count(s) {
				t.Errorf("%s rank %d: count(%v) = %d, want %d", label, i, s,
					got[i].Outcome.Profile.Count(s), want[i].Outcome.Profile.Count(s))
			}
		}
	}
}

func TestSearchPairsMatchesSequential(t *testing.T) {
	e, inv := fixture(t)
	for _, scenario := range threat.Scenarios() {
		base := Request{
			Ensemble:  e,
			Inventory: inv,
			Primary:   "p",
			Scenario:  scenario,
		}
		want, err := SearchPairsSequential(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			req := base
			req.Workers = workers
			got, err := SearchPairs(req)
			if err != nil {
				t.Fatal(err)
			}
			sameCandidates(t, scenario.String(), got, want)
		}
	}
}

// TestSearchPairsRejectsInvalidConfig: every built configuration is
// validated, not only the first. One placement's Build returns an
// unnamed "6+6+6" — the same shape as its valid siblings, so one
// shared outcome table would otherwise evaluate it — and the search
// must fail exactly as the sequential reference does.
func TestSearchPairsRejectsInvalidConfig(t *testing.T) {
	e, inv := fixture(t)
	req := Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   "p",
		Scenario:  threat.HurricaneIntrusionIsolation,
		Build: func(p topology.Placement) topology.Config {
			cfg := topology.NewConfig666(p.Primary, p.Second, p.DataCenter)
			if p.Second == "corr" && p.DataCenter == "safe" {
				cfg.Name = ""
			}
			return cfg
		},
	}
	_, want := SearchPairsSequential(req)
	if want == nil {
		t.Fatal("sequential reference accepted an unnamed configuration")
	}
	for _, workers := range []int{1, 2} {
		req.Workers = workers
		if _, err := SearchPairs(req); err == nil || err.Error() != want.Error() {
			t.Errorf("workers=%d: SearchPairs error = %v, want %v", workers, err, want)
		}
	}
}

func TestSearchSecondSiteMatchesSequential(t *testing.T) {
	e, inv := fixture(t)
	base := Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   "p",
		Scenario:  threat.HurricaneIntrusionIsolation,
		Objective: AvailabilityWeighted,
		Build: func(p topology.Placement) topology.Config {
			return topology.NewConfig22(p.Primary, p.Second)
		},
	}
	want, err := SearchSecondSiteSequential(base, "dc")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		req := base
		req.Workers = workers
		got, err := SearchSecondSite(req, "dc")
		if err != nil {
			t.Fatal(err)
		}
		sameCandidates(t, "second-site", got, want)
	}
}
