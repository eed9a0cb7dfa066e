package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// TestJobRegistryModel drives each job kind's registry through seeded
// random interleavings of submit (and coalesce), progress, finish
// (done, failed, canceled, deadline), close, ensureDone, export and
// import, checking it after every step against a plain map model. A
// concurrent reader polls and exports throughout, so `go test -race`
// also checks the locking.
func TestJobRegistryModel(t *testing.T) {
	t.Run("placement", func(t *testing.T) {
		runRegistryModel(t, registryKind[placementSpec, placement.KProgress, *placement.KResult]{
			newReg: newPlacementJobs,
			spec: func(string) placementSpec {
				return placementSpec{ensName: "stub", scenario: threat.HurricaneIntrusion, objName: "green", k: 2, exact: true}
			},
			progress: func(n int) placement.KProgress { return placement.KProgress{Phase: "exact", Evaluated: int64(n)} },
			result: func(key string) *placement.KResult {
				sites := []string{"a", key}
				return &placement.KResult{
					Sites:   sites,
					Score:   0.5,
					Outcome: analysis.Outcome{Config: topology.NewConfigKSite(sites), Scenario: threat.HurricaneIntrusion, Profile: stats.NewProfile()},
				}
			},
			decode: jobFromEnvelope,
		})
	})
	t.Run("generation", func(t *testing.T) {
		runRegistryModel(t, registryKind[generationSpec, int, int]{
			newReg: newEnsembleJobs,
			spec: func(key string) generationSpec {
				return generationSpec{ensName: uploadedEnsembleName(key), topologyID: "0123456789abcdef", total: 40}
			},
			progress: func(n int) int { return n },
			result:   func(string) int { return 3 },
			decode:   generationFromEnvelope,
		})
	})
}

// registryKind adapts one job kind to the model test.
type registryKind[S jobSpec[P, R], P, R any] struct {
	newReg   func(retention int) *jobs[S, P, R]
	spec     func(key string) S
	progress func(n int) P
	result   func(key string) R
	decode   func(jobEnvelope) (*job[S, P, R], error)
}

// modelJob is the model's view of one job: which real job it stands
// for and the state the model predicts for it.
type modelJob[S, P, R any] struct {
	real     *job[S, P, R]
	state    string
	canceled bool // close called the job's cancel func
}

// registryModel is the plain-map model of one registry.
type registryModel[S, P, R any] struct {
	retention   int
	byID, byKey map[string]*modelJob[S, P, R]
	finished    []*modelJob[S, P, R]
	newest      map[string]*modelJob[S, P, R] // latest job created under each id
	all         []*modelJob[S, P, R]
	closed      bool
	submitted   int64
	coalesced   int64
	counts      map[string]int64 // finishes by terminal state
}

func (m *registryModel[S, P, R]) register(mj *modelJob[S, P, R]) {
	m.byID[mj.real.id] = mj
	m.byKey[mj.real.key] = mj
	m.newest[mj.real.id] = mj
	m.all = append(m.all, mj)
}

func (m *registryModel[S, P, R]) retain(mj *modelJob[S, P, R]) {
	m.finished = append(m.finished, mj)
	for len(m.finished) > m.retention {
		old := m.finished[0]
		m.finished = m.finished[1:]
		if m.byID[old.real.id] == old {
			delete(m.byID, old.real.id)
		}
		if m.byKey[old.real.key] == old {
			delete(m.byKey, old.real.key)
		}
	}
}

func runRegistryModel[S jobSpec[P, R], P, R any](t *testing.T, kind registryKind[S, P, R]) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			obs.Enable(obs.New())
			t.Cleanup(func() { obs.Enable(nil) })
			rng := rand.New(rand.NewSource(seed))
			retention := 1 + rng.Intn(4)
			g := kind.newReg(retention)
			m := &registryModel[S, P, R]{
				retention: retention,
				byID:      map[string]*modelJob[S, P, R]{},
				byKey:     map[string]*modelJob[S, P, R]{},
				newest:    map[string]*modelJob[S, P, R]{},
				counts:    map[string]int64{},
			}
			keys := make([]string, 2+rng.Intn(5))
			for i := range keys {
				keys[i] = fmt.Sprintf("%016x", 0xfeed0000+i)
			}
			var pool []jobEnvelope // envelopes exported so far, for re-import

			// The concurrent reader: polls, snapshots and exports while
			// the driver mutates.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if j, ok := g.get(jobID(keys[i%len(keys)])); ok {
						j.snapshot()
					}
					g.exportDone()
				}
			}()
			defer func() { close(stop); wg.Wait() }()

			for step := 0; step < 300; step++ {
				op := stepRegistryModel(t, rng, g, m, kind, keys, &pool)
				checkRegistryModel(t, g, m, fmt.Sprintf("step %d (%s)", step, op))
				if t.Failed() {
					return
				}
			}
		})
	}
}

// stepRegistryModel applies one random operation to the registry and
// the model, checking the operation's direct result, and names it.
func stepRegistryModel[S jobSpec[P, R], P, R any](t *testing.T, rng *rand.Rand, g *jobs[S, P, R], m *registryModel[S, P, R], kind registryKind[S, P, R], keys []string, pool *[]jobEnvelope) string {
	t.Helper()
	key := keys[rng.Intn(len(keys))]
	var pick *modelJob[S, P, R]
	if len(m.all) > 0 {
		pick = m.all[rng.Intn(len(m.all))]
	}
	switch op := rng.Intn(100); {
	case op < 30:
		var started *modelJob[S, P, R]
		j, coalesced, err := g.submit(key, kind.spec(key), "", func(j *job[S, P, R]) {
			started = &modelJob[S, P, R]{real: j, state: jobRunning}
			j.cancel = func() { started.canceled = true }
		})
		switch prev, ok := m.byKey[key]; {
		case m.closed:
			if err == nil {
				t.Fatalf("submit after close accepted")
			}
		case ok:
			m.coalesced++
			if err != nil || !coalesced || j != prev.real {
				t.Fatalf("submit %s: got (%p, %v, %v), want coalesced onto %p", key, j, coalesced, err, prev.real)
			}
		default:
			if err != nil || coalesced || started == nil || j != started.real || j.id != jobID(key) {
				t.Fatalf("submit %s: got (%p, %v, %v), want a new running job", key, j, coalesced, err)
			}
			m.submitted++
			m.register(started)
		}
		return "submit"
	case op < 40:
		if pick != nil && pick.state == jobRunning {
			pick.real.setProgress(kind.progress(rng.Intn(100)))
		}
		return "progress"
	case op < 70:
		if pick == nil {
			return "finish (none)"
		}
		var res R
		var err error
		name := "finish done"
		switch rng.Intn(4) {
		case 0:
			res = kind.result(pick.real.key)
		case 1:
			err, name = fmt.Errorf("boom"), "finish failed"
		case 2:
			err, name = context.Canceled, "finish canceled"
		default:
			err, name = fmt.Errorf("job exceeded its deadline: %w", context.DeadlineExceeded), "deadline"
		}
		g.finish(pick.real, res, err)
		if pick.state != jobRunning {
			return name + " (no-op)"
		}
		switch {
		case err == nil:
			pick.state = jobDone
		case err == context.Canceled:
			pick.state = jobCanceled
		default:
			pick.state = jobFailed
		}
		m.counts[pick.state]++
		if pick.state != jobDone && m.byKey[pick.real.key] == pick {
			delete(m.byKey, pick.real.key)
		}
		m.retain(pick)
		return name
	case op < 71:
		g.close()
		m.closed = true
		for _, mj := range m.all {
			if mj.state == jobRunning && !mj.canceled {
				t.Fatalf("close left running job %s uncanceled", mj.real.id)
			}
		}
		return "close"
	case op < 80:
		j := g.ensureDone(key, kind.spec(key), kind.progress(40), kind.result(key))
		if prev, ok := m.byKey[key]; ok {
			if j != prev.real {
				t.Fatalf("ensureDone %s: got %p, want existing %p", key, j, prev.real)
			}
			return "ensureDone (existing)"
		}
		mj := &modelJob[S, P, R]{real: j, state: jobDone}
		m.register(mj)
		m.retain(mj)
		return "ensureDone"
	case op < 88:
		envs := g.exportDone()
		var want []string
		for _, mj := range m.finished {
			if mj.state == jobDone {
				want = append(want, mj.real.id)
			}
		}
		if len(envs) != len(want) {
			t.Fatalf("export: %d envelopes, want %d", len(envs), len(want))
		}
		for i, env := range envs {
			if env.ID != want[i] {
				t.Fatalf("export[%d] = %s, want %s", i, env.ID, want[i])
			}
		}
		*pool = append(*pool, envs...)
		return "export"
	default:
		var env jobEnvelope
		if len(*pool) > 0 && rng.Intn(3) > 0 {
			env = (*pool)[rng.Intn(len(*pool))]
		} else {
			var ok bool
			env, ok = envelopeOf(doneJob(jobID(key), key, kind.spec(key), time.Unix(1, 0), kind.progress(40), kind.result(key)))
			if !ok {
				t.Fatal("fresh done job not exportable")
			}
		}
		j, err := kind.decode(env)
		if err != nil {
			t.Fatalf("decode exported envelope: %v", err)
		}
		got := g.importDone(j)
		_, idTaken := m.byID[j.id]
		_, keyTaken := m.byKey[j.key]
		if want := !m.closed && !idTaken && !keyTaken; got != want {
			t.Fatalf("import %s: got %v, want %v", j.id, got, want)
		}
		if got {
			mj := &modelJob[S, P, R]{real: j, state: jobDone}
			m.register(mj)
			m.retain(mj)
		}
		return "import"
	}
}

// checkRegistryModel compares the registry's indexes and instruments
// with the model and checks the machine's invariants.
func checkRegistryModel[S jobSpec[P, R], P, R any](t *testing.T, g *jobs[S, P, R], m *registryModel[S, P, R], at string) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.byID) != len(m.byID) || len(g.byKey) != len(m.byKey) {
		t.Fatalf("%s: registry indexes %d ids / %d keys, model %d / %d", at, len(g.byID), len(g.byKey), len(m.byID), len(m.byKey))
	}
	for id, mj := range m.byID {
		if g.byID[id] != mj.real {
			t.Fatalf("%s: id %s resolves to %p, model %p", at, id, g.byID[id], mj.real)
		}
	}
	for key, mj := range m.byKey {
		if g.byKey[key] != mj.real {
			t.Fatalf("%s: key %s coalesces onto %p, model %p", at, key, g.byKey[key], mj.real)
		}
	}
	if len(g.finished) != len(m.finished) {
		t.Fatalf("%s: %d finished, model %d", at, len(g.finished), len(m.finished))
	}
	for i, mj := range m.finished {
		if g.finished[i] != mj.real {
			t.Fatalf("%s: finished[%d] differs from the model", at, i)
		}
	}

	// Invariants, on the registry itself.
	for key, j := range g.byKey {
		if g.byID[j.id] != j {
			t.Fatalf("%s: key %s indexes job %s, which is not in byID", at, key, j.id)
		}
	}
	if len(g.finished) > g.retention {
		t.Fatalf("%s: %d finished jobs retained, bound %d", at, len(g.finished), g.retention)
	}
	var running int64
	retained := map[*job[S, P, R]]bool{}
	for _, j := range g.finished {
		retained[j] = true
	}
	for _, mj := range m.all {
		state, _, _, _ := mj.real.snapshot()
		if state != mj.state {
			t.Fatalf("%s: job %s is %s, model %s", at, mj.real.id, state, mj.state)
		}
		if state == jobRunning {
			running++
			retained[mj.real] = true
		}
	}
	if v := g.running.Value(); v != running {
		t.Fatalf("%s: running gauge %d, %d jobs running", at, v, running)
	}
	done, failed, canceled := g.jdone.Value(), g.jfailed.Value(), g.jcanceled.Value()
	if g.submitted.Value() != done+failed+canceled+running {
		t.Fatalf("%s: submitted %d != done %d + failed %d + canceled %d + running %d",
			at, g.submitted.Value(), done, failed, canceled, running)
	}
	if g.submitted.Value() != m.submitted || g.coalesced.Value() != m.coalesced ||
		done != m.counts[jobDone] || failed != m.counts[jobFailed] || canceled != m.counts[jobCanceled] {
		t.Fatalf("%s: counters differ from the model", at)
	}
	for id, mj := range m.newest {
		if retained[mj.real] && g.byID[id] != mj.real {
			t.Fatalf("%s: retained id %s does not resolve to its newest job", at, id)
		}
	}
}
