package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"compoundthreat/internal/store"
)

// viewCacheCapacity is threatserver's default -cache; read-hot's
// distinct views must fit it so the warmed run never compiles.
const viewCacheCapacity = 64

// readRoutes are the serve endpoint names the read mix hits.
var readRoutes = []string{"sweep", "sweep_post", "figure", "placement"}

// phaseSnap is the targets' state at a phase boundary.
type phaseSnap struct {
	metrics counterSet
	procs   []procSample
}

func snapshot(env *benchEnv, f *fleet) (phaseSnap, error) {
	var s phaseSnap
	for _, base := range f.bases() {
		m, err := scrape(env.client, base)
		if err != nil {
			return s, err
		}
		s.metrics = append(s.metrics, m)
	}
	for _, pid := range f.pids() {
		p, err := readProc(pid)
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, p)
	}
	return s, nil
}

// runWorkload runs one workload end to end: oracle, set-up, warm-up,
// the timed phases, post-run verification, and — when traced — the
// per-layer replays.
func runWorkload(env *benchEnv, w workload, seed int64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	res := newResult()

	orc, err := newOracle()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rs := &readSet{reads: makeReadMix(seed)}
	views, err := distinctViews(rs.reads)
	if err != nil {
		return nil, err
	}
	if views > viewCacheCapacity {
		return nil, fmt.Errorf("read mix touches %d views, over the %d-entry view cache", views, viewCacheCapacity)
	}
	for _, r := range rs.reads {
		ref, err := orc.reference(r)
		if err != nil {
			res.fail("reference: %v", err)
		}
		rs.refs = append(rs.refs, ref)
	}
	env.stage("oracle and references ready")
	fmt.Fprintf(out, "# read mix: %d distinct reads over %d compiled views, references checked against the batch path\n", len(rs.reads), views)

	var setups, genRates []float64
	var f *fleet
	for a := 0; a < setupRepeats; a++ {
		t := time.Now()
		f, err = startFleet(env, w, a)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		rate, err := startupGenRate(env, f)
		if err != nil {
			f.stop()
			return nil, err
		}
		genRates = append(genRates, rate)
		if a < setupRepeats-1 {
			f.stop()
		}
	}
	defer f.stop()
	env.stage("targets ready, setup_s samples %v", setups)

	// Warm-up: every distinct read once, so every view is compiled
	// before timing; each answer is byte-checked like a timed one.
	for i := range rs.reads {
		res.attempted++
		if _, err := rs.doRead(env.client, f.entry, i); err != nil {
			res.fail("warm-up: %v", err)
		}
	}
	// Then a second of the closed loop itself, so the targets' heaps and
	// the connection are at their steady size when timing starts.
	warm := closedLoop(env.client, f.entry, rs, seed+2, time.Second, nil, 0)
	res.attempted += warm.attempted
	for i := 0; i < warm.failed; i++ {
		res.fail("warm-up read: %v", warm.firstErr)
	}

	var wr *writer
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	if w.writer {
		wr = &writer{c: newClient(1), base: f.entry, seed: seed}
		defer wr.c.CloseIdleConnections()
	}

	before, err := snapshot(env, f)
	if err != nil {
		return nil, err
	}
	if wr != nil {
		go func() {
			defer close(writerDone)
			wr.run(stopWriter)
		}()
	}
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	ph := phases{stealBeg: readCPU(), closedBeg: time.Now()}
	// The closed loop is one client: a second one would put the
	// generator, the target and the client threads on the same two CPUs
	// at once and measure how the kernel and the host schedule them more
	// than the program. Seven eighths of the measured time go to it,
	// whose metrics are gated; the rest goes to the open loop, which is
	// only reported (see README.md, "Left out of the gate").
	if traced {
		ph.untraced = closedLoop(env.client, f.entry, rs, seed, 7*d/16, nil, 0)
		ph.closed = closedLoop(env.client, f.entry, rs, seed+1, 7*d/16, spans, 1<<40)
	} else {
		ph.closed = closedLoop(env.client, f.entry, rs, seed, 7*d/8, nil, 0)
	}
	ph.closedEnd = time.Now()
	sched := schedule(seed, w.openRate, d/8, len(rs.reads))
	ph.open = openLoop(env.client, f.entry, rs, sched, env.nproc, spans, 1<<44)
	if wr != nil {
		close(stopWriter)
		<-writerDone
	}
	ph.steal = stealShare(ph.stealBeg, readCPU())
	after, err := snapshot(env, f)
	if err != nil {
		return nil, err
	}
	env.stage("timed phases done")
	for _, p := range countCache(before.metrics, after.metrics).check(w) {
		res.invalid("%s", p)
	}

	for _, t := range []*readTally{ph.untraced, ph.closed, &ph.open.readTally} {
		if t == nil {
			continue
		}
		res.attempted += t.attempted
		for i := 0; i < t.failed; i++ {
			res.fail("timed read: %v", t.firstErr)
		}
	}

	var cyc []cycleResult
	var replays []cycleReplay
	if wr != nil {
		cyc = wr.results
		replays = verifyCycles(env, cyc, res)
		env.stage("%d writer cycles re-derived", len(cyc))
	}

	if !traced {
		endToEnd(res, w, rs, setups, genRates, after, ph, cyc)
	} else {
		if err := perLayer(env, res, w, f, orc, rs, before, after, ph, cyc, replays, spans, out); err != nil {
			return nil, err
		}
		if err := spans.write(filepath.Join(env.work, "spans.jsonl")); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", filepath.Join(env.work, "spans.jsonl"))
	}
	openValidity(res, ph.open)
	return res, nil
}

// phases holds the timed phases' tallies.
type phases struct {
	untraced  *readTally // traced runs only: the untraced half of the closed loop
	closed    *readTally
	closedBeg time.Time
	closedEnd time.Time
	open      *openTally
	stealBeg  cpuReading
	steal     float64 // share of the VM's CPU time stolen over the timed phases
}

// verifyCycles re-derives every writer cycle in-process after the
// timed phase, outside the timing. A cycle that failed on the wire or
// disagrees with its re-derivation is a failed operation.
func verifyCycles(env *benchEnv, cyc []cycleResult, res *result) []cycleReplay {
	dir := filepath.Join(env.work, "replay-store")
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		res.fail("replay store: %v", err)
		return nil
	}
	defer os.RemoveAll(dir)
	var out []cycleReplay
	for _, c := range cyc {
		res.attempted++
		if c.err != nil {
			res.fail("writer cycle %d: %v", c.in.n, c.err)
			continue
		}
		rep, err := replayCycle(context.Background(), c, st)
		if err != nil {
			res.fail("writer cycle %d re-derivation: %v", c.in.n, err)
			continue
		}
		out = append(out, rep)
	}
	return out
}

// openValidity flags an open-loop phase whose generator ran later than
// the service time it measures: its latencies would describe the
// generator, not the target.
func openValidity(res *result, o *openTally) {
	late := summarize(append([]float64(nil), o.lateness...), 0.99)
	svc := summarize(append([]float64(nil), o.service...), 0.99)
	if late.N == 0 || svc.N == 0 {
		res.invalid("open loop sent nothing")
		return
	}
	if late.P50 > svc.P50 {
		res.invalid("open loop invalid: generator lateness p50 %.3f ms exceeds service p50 %.3f ms", late.P50, svc.P50)
	}
}

// cacheCounts are the targets' view-cache and compile counter deltas
// over the timed phases.
type cacheCounts struct {
	hits, misses, coalesced float64
	matrices, searches      float64
}

func countCache(before, after counterSet) cacheCounts {
	return cacheCounts{
		hits:      delta(before, after, "serve_cache_hits_total"),
		misses:    delta(before, after, "serve_cache_misses_total"),
		coalesced: delta(before, after, "serve_cache_coalesced_total"),
		matrices:  delta(before, after, "engine_matrices_compiled_total"),
		searches:  delta(before, after, "serve_jobs_done_total"),
	}
}

// compiles is the number of view compiles: every matrix compiled that
// is not a K-site search's own.
func (c cacheCounts) compiles() float64 { return c.matrices - c.searches }

func (c cacheCounts) hitRatio() float64 { return c.hits / (c.hits + c.misses + c.coalesced) }

// check returns what the counters contradict: on every workload each
// view compile is a cache miss, and on a warmed read workload the
// timed reads all hit the cache and nothing compiles.
func (c cacheCounts) check(w workload) []string {
	var out []string
	if c.compiles() != c.misses {
		out = append(out, fmt.Sprintf("engine.compiles %.0f != serve cache misses %.0f", c.compiles(), c.misses))
	}
	if !w.writer && (c.hits == 0 || c.hitRatio() != 1 || c.compiles() != 0) {
		out = append(out, fmt.Sprintf("warmed %s reads: cache hit ratio %.4f (%.0f hits, %.0f misses, %.0f coalesced), %.0f compiles; want 1 and 0",
			w.name, c.hitRatio(), c.hits, c.misses, c.coalesced, c.compiles()))
	}
	return out
}

// startupGenRate is the fleet's startup hurricane generation rate as
// the servers time it themselves (the cli.generate_ensemble span of
// threatserver): realizations per second of generation, summed over
// the servers' realizations and generation times.
func startupGenRate(env *benchEnv, f *fleet) (float64, error) {
	var reals, secs float64
	for _, s := range f.servers {
		m, err := scrape(env.client, s.base)
		if err != nil {
			return 0, err
		}
		ns, ok := m.Get("cli_generate_ensemble_ns_sum")
		if !ok {
			return 0, fmt.Errorf("%s: no cli_generate_ensemble_ns_sum in /v1/metrics", s.base)
		}
		reals += startupRealizations
		secs += ns / 1e9
	}
	return reals / secs, nil
}

// endToEnd fills the untraced run's metrics. Every statistic is taken
// over the whole timed phase it describes.
func endToEnd(res *result, w workload, rs *readSet, setups, genRates []float64, after phaseSnap, ph phases, cyc []cycleResult) {
	res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d launches", len(setups)))
	cd := ph.closedEnd.Sub(ph.closedBeg)
	stolen := fmt.Sprintf("%.1f%% of CPU stolen", 100*ph.steal)
	cl := summarize(append([]float64(nil), ph.closed.lat...), 0.99)
	res.setExtra("read_rps", float64(cl.N)/cd.Seconds(), "1/s", fmt.Sprintf("one client closed loop, %d reads in %.1f s, %s", cl.N, cd.Seconds(), stolen))
	res.set("read_p50_ms", cl.P50, "ms", fmt.Sprintf("n=%d, %s", cl.N, stolen))
	res.setExtra("read_p99_ms", cl.Tail, "ms", fmt.Sprintf("p%.2f (>=%d beyond), n=%d", cl.TailPct, minTail, cl.N))
	op := summarize(append([]float64(nil), ph.open.lat...), 0.99)
	res.setExtra("open_p50_ms", op.P50, "ms", fmt.Sprintf("%.0f/s from scheduled send, n=%d", w.openRate, op.N))
	res.setExtra("open_p99_ms", op.Tail, "ms", fmt.Sprintf("p%.2f, n=%d", op.TailPct, op.N))
	printKinds(res, rs, ph.closed)

	var hwm int64
	for _, p := range after.procs {
		hwm += p.HWMkB
	}
	res.set("rss_peak_mb", float64(hwm)/1024, "MB", fmt.Sprintf("sum of VmHWM over %d processes", len(after.procs)))

	if w.writer {
		var cycles, gens []float64
		for _, c := range cyc {
			if c.err == nil {
				cycles = append(cycles, c.total.Seconds())
				gens = append(gens, c.genWall.Seconds())
			}
		}
		res.setExtra("gen_realizations_per_s", cycleRealizations/median(gens), "1/s", fmt.Sprintf("%d realizations / median submit-to-done of %d jobs", cycleRealizations, len(gens)))
		res.setExtra("cycle_p50_s", median(cycles), "s", fmt.Sprintf("median writer cycle, %d cycles", len(cycles)))
	} else {
		res.setExtra("gen_realizations_per_s", median(genRates), "1/s", fmt.Sprintf("startup hurricane generation as each server times it, median of %d launches", len(genRates)))
	}
	lt := summarize(append([]float64(nil), ph.open.lateness...), 0.99)
	res.setExtra("load.lateness_p50_ms", lt.P50, "ms", fmt.Sprintf("n=%d", lt.N))
	res.setExtra("failed_ratio", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", "failed / attempted")
}

// printKinds reports each read kind's share of the closed-loop reads
// and its latency, so the mix's weight in read_p50_ms can be seen.
func printKinds(res *result, rs *readSet, t *readTally) {
	by := map[string][]float64{}
	for _, s := range t.samples {
		k := rs.reads[s.idx].Kind
		by[k] = append(by[k], float64(s.rtt)/1e6)
	}
	for k, xs := range by {
		d := summarize(xs, 0.99)
		res.setExtra("read_p50_ms."+k, d.P50, "ms", fmt.Sprintf("%.1f%% of closed-loop reads, n=%d, whole phase", 100*float64(d.N)/float64(len(t.samples)), d.N))
	}
}
