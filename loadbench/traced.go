package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/serve"
	"compoundthreat/internal/shard"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Replay repetitions per distinct read. 16 × 64 reads = 1024 handler
// samples, enough for a p99 with ten samples beyond it.
const (
	replayReps  = 16
	compileReps = 3
	shapeReps   = 200
)

// cellSet is one read's engine work: the configurations it evaluates
// under one capability, against one (ensemble, universe) view.
type cellSet struct {
	ensemble   string
	universe   []string
	configs    []topology.Config
	capability threat.Capability
}

// cellsOf derives the read's cells exactly as the serving layer does:
// sweep and figure configurations over the placement's universe,
// placement rankings' 6+6+6 candidates over the candidate universe.
func (o *oracle) cellsOf(r readReq) (cellSet, error) {
	cs := cellSet{ensemble: r.Ensemble}
	var sc threat.Scenario
	var err error
	switch r.Kind {
	case "figure":
		fig, ferr := analysis.FigureByID(r.Figure)
		if ferr != nil {
			return cs, ferr
		}
		sc = fig.Scenario
		cs.configs, err = topology.StandardConfigs(fig.Placement)
	case "placement":
		req, perr := o.pairsRequest(r)
		if perr != nil {
			return cs, perr
		}
		sc = req.Scenario
		var ps []topology.Placement
		if r.DataCenter != "" {
			ps, err = placement.CandidateSecondSites(req, r.DataCenter)
		} else {
			ps, err = placement.CandidatePairs(req)
		}
		for _, p := range ps {
			cs.configs = append(cs.configs, topology.NewConfig666(p.Primary, p.Second, p.DataCenter))
		}
	default:
		if sc, err = threat.ParseScenario(r.Scenario); err == nil {
			cs.configs, err = configsFor(r.Place, r.Configs)
		}
	}
	if err != nil {
		return cs, err
	}
	cs.capability = sc.Capability()
	seen := map[string]bool{}
	for _, c := range cs.configs {
		for _, s := range c.Sites {
			if !seen[s.AssetID] {
				seen[s.AssetID] = true
				cs.universe = append(cs.universe, s.AssetID)
			}
		}
	}
	return cs, nil
}

// readReplay is one distinct read's per-layer medians, in µs.
type readReplay struct {
	handle, engine, route, direct, shape, pairs float64
	cells                                       int
	owner                                       int // backend the router sent the read to
}

// layerProbe is the state the replays share.
type layerProbe struct {
	orc    *oracle
	spans  *spanLog
	views  map[string]*engine.CompressedMatrix
	rt     *shard.Router
	ring   *shard.Ring
	fps    map[string]string // ensemble → fingerprint, as the router learns it
	direct []string          // worker base URLs by backend index
	client *http.Client

	handles, cellTimes, compiles []float64
	rows, distinct               int
}

// compiled returns the view for (ensemble, universe), compiling it on
// first use with timed matrix-build and dedup spans.
func (p *layerProbe) compiled(trace uint64, parent int, cs cellSet) (*engine.CompressedMatrix, error) {
	key := cs.ensemble + "|" + strings.Join(cs.universe, "\x1f")
	if cm, ok := p.views[key]; ok {
		return cm, nil
	}
	var cm *engine.CompressedMatrix
	var reps []float64
	for i := 0; i < compileReps; i++ {
		var err error
		d := p.spans.timed("engine.compile", trace, parent, func(id int) {
			var m *engine.FailureMatrix
			p.spans.timed("engine.matrix", trace, id, func(int) {
				m, err = engine.NewFailureMatrix(p.orc.ens[cs.ensemble], cs.universe)
			})
			if err == nil {
				p.spans.timed("engine.compress", trace, id, func(int) { cm = engine.Compress(m, 1) })
			}
		})
		if err != nil {
			return nil, err
		}
		reps = append(reps, us(d))
	}
	p.compiles = append(p.compiles, median(reps))
	p.rows += cm.Rows()
	p.distinct += cm.DistinctRows()
	p.views[key] = cm
	return cm, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replay runs every layer's entry point on read i, replayReps times
// each, under one trace whose root covers the whole replay.
func (p *layerProbe) replay(i int, r readReq, ref []byte) (readReplay, error) {
	var out readReplay
	trace := uint64(1)<<48 + uint64(i)
	root := p.spans.begin("replay."+r.Kind, trace, 0)
	defer p.spans.end(root)
	cs, err := p.orc.cellsOf(r)
	if err != nil {
		return out, err
	}
	out.cells = len(cs.configs)
	cm, err := p.compiled(trace, root, cs)
	if err != nil {
		return out, err
	}

	var handle, eng, route, direct, pairs []float64
	for k := 0; k < replayReps; k++ {
		var herr error
		handle = append(handle, us(p.spans.timed("serve.handle", trace, root, func(int) {
			var rec *httptest.ResponseRecorder
			if rec, herr = p.orc.handle(r); herr == nil && !bytes.Equal(rec.Body.Bytes(), ref) {
				herr = fmt.Errorf("in-process body differs from reference")
			}
		})))
		if herr != nil {
			return out, herr
		}
		var eerr error
		eng = append(eng, us(p.spans.timed("engine.cells", trace, root, func(id int) {
			for _, c := range cs.configs {
				d := p.spans.timed("engine.cell", trace, id, func(int) {
					_, err := engine.CellProfileCompressed(cm, c, cs.capability, 1)
					if err != nil {
						eerr = err
					}
				})
				p.cellTimes = append(p.cellTimes, us(d))
			}
		})))
		if eerr != nil {
			return out, eerr
		}
		if r.Kind == "placement" {
			var perr error
			pairs = append(pairs, us(p.spans.timed("placement.pairs", trace, root, func(int) {
				_, perr = p.orc.searchPairs(r, 1)
			})))
			if perr != nil {
				return out, perr
			}
		}
		owner, d, err := p.routeOnce(trace, root, r, ref)
		if err != nil {
			return out, err
		}
		out.owner = owner
		route = append(route, d)
		d, err = p.directOnce(trace, root, r, ref, owner)
		if err != nil {
			return out, err
		}
		direct = append(direct, d)
	}
	p.handles = append(p.handles, handle...)
	sd := p.spans.timed("shard.shape", trace, root, func(int) {
		for k := 0; k < shapeReps && err == nil; k++ {
			var s serve.QueryShape
			if s, err = r.shape(); err == nil {
				p.ring.Seq(p.fps[s.Ensemble] + "\x1f" + s.Identity)
			}
		}
	})
	if err != nil {
		return out, err
	}
	out.shape = us(sd) / shapeReps
	out.handle, out.engine = median(handle), median(eng)
	out.route, out.direct = median(route), median(direct)
	out.pairs = median(pairs)
	return out, nil
}

// routeOnce sends the read through the in-process router against the
// live workers and returns the backend that answered.
func (p *layerProbe) routeOnce(trace uint64, parent int, r readReq, ref []byte) (int, float64, error) {
	req, err := r.newRequest("")
	if err != nil {
		return 0, 0, err
	}
	rec := httptest.NewRecorder()
	d := p.spans.timed("shard.route", trace, parent, func(int) { p.rt.Handler().ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ref) {
		return 0, 0, fmt.Errorf("routed %s: status %d, body matches reference: %t", r.Target, rec.Code, bytes.Equal(rec.Body.Bytes(), ref))
	}
	owner, err := strconv.Atoi(rec.Header().Get("X-Shard-Backend"))
	if err != nil || owner < 0 || owner >= len(p.direct) {
		return 0, 0, fmt.Errorf("routed %s: bad X-Shard-Backend %q", r.Target, rec.Header().Get("X-Shard-Backend"))
	}
	return owner, us(d), nil
}

// directOnce sends the read straight to the owning worker.
func (p *layerProbe) directOnce(trace uint64, parent int, r readReq, ref []byte, owner int) (float64, error) {
	req, err := r.newRequest(p.direct[owner])
	if err != nil {
		return 0, err
	}
	var status int
	var body []byte
	d := p.spans.timed("shard.direct", trace, parent, func(int) { status, body, err = send(p.client, req) })
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK || !bytes.Equal(body, ref) {
		return 0, fmt.Errorf("direct %s: status %d, body matches reference: %t", r.Target, status, bytes.Equal(body, ref))
	}
	return us(d), nil
}

// startProbeRouter builds an in-process router over the live workers
// and waits until it has learned every worker's ensembles.
func startProbeRouter(bases []string) (*shard.Router, map[string]string, error) {
	rt, err := shard.New(shard.Options{Backends: bases})
	if err != nil {
		return nil, nil, err
	}
	fps, err := waitRouted(func() ([]byte, error) {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		return rec.Body.Bytes(), nil
	}, len(bases))
	if err != nil {
		rt.Close()
		return nil, nil, fmt.Errorf("in-process router: %w", err)
	}
	return rt, fps, nil
}

// perLayer fills the traced run's metrics: in-process replays, counter
// deltas over the timed phases, and /proc deltas; then prints the
// blocking-path breakdown and the span self-time table.
func perLayer(env *benchEnv, res *result, w workload, f *fleet, orc *oracle, rs *readSet,
	before, after phaseSnap, ph phases, cyc []cycleResult, replays []cycleReplay, spans *spanLog, out io.Writer) error {
	var bases []string
	for _, s := range f.servers {
		bases = append(bases, s.base)
	}
	rt, fps, err := startProbeRouter(bases)
	if err != nil {
		return err
	}
	defer rt.Close()
	p := &layerProbe{orc: orc, spans: spans, views: map[string]*engine.CompressedMatrix{}, rt: rt,
		ring: shard.NewRing(len(bases), 64), fps: fps, direct: bases, client: env.client}
	reps := make([]readReplay, len(rs.reads))
	for i, r := range rs.reads {
		if reps[i], err = p.replay(i, r, rs.refs[i]); err != nil {
			res.fail("replay %s %s: %v", r.Method, r.Target, err)
		}
	}

	// serve
	hd := summarize(append([]float64(nil), p.handles...), 0.99)
	res.set("serve.handle_us_p50", hd.P50, "us", fmt.Sprintf("in-process handler, n=%d", hd.N))
	res.set("serve.handle_us_p99", hd.Tail, "us", fmt.Sprintf("p%.2f of n=%d", hd.TailPct, hd.N))
	var self, shapeUs, route, rself, net, pairs []float64
	cells := 0
	for _, x := range reps {
		self = append(self, x.handle-x.engine)
		shapeUs = append(shapeUs, x.shape)
		route = append(route, x.route)
		rself = append(rself, x.route-x.direct)
		net = append(net, x.direct-x.handle)
		cells += x.cells
		if x.pairs > 0 {
			pairs = append(pairs, x.pairs)
		}
	}
	res.set("serve.self_us", median(self), "us", "handler minus its engine cells, median over distinct reads")
	var httpUs, rtts []float64
	for _, s := range ph.closed.samples {
		httpUs = append(httpUs, us(s.rtt)-reps[s.idx].handle)
		rtts = append(rtts, us(s.rtt))
	}
	res.set("serve.http_us", median(httpUs), "us", fmt.Sprintf("traced round trip minus handler, n=%d", len(httpUs)))
	var lsum, lcnt float64
	for _, route := range readRoutes {
		lsum += delta(before.metrics, after.metrics, "serve_latency_ns_"+route+"_sum")
		lcnt += delta(before.metrics, after.metrics, "serve_latency_ns_"+route+"_count")
	}
	res.set("serve.server_mean_us", lsum/lcnt/1e3, "us", fmt.Sprintf("target histograms, %.0f reads", lcnt))
	cc := countCache(before.metrics, after.metrics)
	res.set("serve.cache_hit_ratio", cc.hitRatio(), "ratio", fmt.Sprintf("%.0f hits, %.0f misses, %.0f coalesced", cc.hits, cc.misses, cc.coalesced))
	var bytesOut int64
	var reads int
	for _, t := range []*readTally{ph.untraced, ph.closed, &ph.open.readTally} {
		bytesOut += t.bytes
		reads += len(t.lat)
	}
	res.set("serve.resp_bytes", float64(bytesOut)/float64(reads), "bytes", "mean read response body")

	// engine
	// runWorkload has already checked these against the cache counters.
	res.set("engine.compiles", cc.compiles(), "count", fmt.Sprintf("view compiles during timing (%.0f matrices − %.0f searches); cache misses %.0f", cc.matrices, cc.searches, cc.misses))
	compileUs, rows, distinct := median(p.compiles), p.rows, p.distinct
	compileNote := fmt.Sprintf("NewFailureMatrix+Compress over the %d read views", len(p.compiles))
	if w.writer && len(replays) > 0 {
		var c []float64
		rows, distinct = 0, 0
		for _, r := range replays {
			c = append(c, us(r.compile))
			rows += r.rows
			distinct += r.distinct
		}
		compileUs = median(c)
		compileNote = fmt.Sprintf("NewFailureMatrix+Compress of %d writer cycles' cold sweep views", len(c))
	}
	res.set("engine.compile_us", compileUs, "us", compileNote)
	res.set("engine.dedup_ratio", float64(distinct)/float64(rows), "ratio", "distinct rows / rows over the compiled views")
	res.set("engine.evaluate_us", median(p.cellTimes), "us", fmt.Sprintf("CellProfileCompressed per cell, n=%d", len(p.cellTimes)))
	res.set("engine.cells_per_read", float64(cells)/float64(len(reps)), "count", "cells per distinct read")

	// placement
	res.set("placement.pairs_us", median(pairs), "us", fmt.Sprintf("SearchPairs / SearchSecondSite, %d placement reads", len(pairs)))

	// hazard
	plan, gen, genNote := us(orc.planTime)/1e3, float64(orc.genTime)/1e6/startupRealizations, "startup hurricane ensemble"
	if w.writer && len(replays) > 0 {
		var pl, g []float64
		for _, r := range replays {
			pl = append(pl, float64(r.plan)/1e6)
			g = append(g, float64(r.generate)/1e6/cycleRealizations)
		}
		plan, gen, genNote = median(pl), median(g), fmt.Sprintf("%d writer cycles", len(g))
	}
	res.set("hazard.plan_ms", plan, "ms", "NewGenerator, "+genNote)
	res.set("hazard.generate_ms_per_realization", gen, "ms", "GenerateCtx, "+genNote)
	mh := delta(before.metrics, after.metrics, "surge_setup_memo_hits_total")
	me := delta(before.metrics, after.metrics, "surge_setup_evals_total")
	memoNote := "surge counters over the timed phase"
	if mh+me == 0 {
		mh, me = after.metrics.sum("surge_setup_memo_hits_total"), after.metrics.sum("surge_setup_evals_total")
		memoNote = "surge counters since launch (no generation during timing)"
	}
	res.set("surge.memo_hit_ratio", mh/(mh+me), "ratio", memoNote)

	// shard
	res.set("shard.shape_us", median(shapeUs), "us", "serve.*Shape + Ring.Seq per read")
	res.set("shard.route_us", median(route), "us", fmt.Sprintf("in-process router over %d live workers", len(bases)))
	res.set("shard.self_us", median(rself), "us", "route minus direct round trip to the owner")
	res.set("shard.net_us", median(net), "us", "direct round trip minus handler")

	// process
	ops := float64(reads)
	var cpuServers, cpuRouter, gc float64
	for i, pr := range f.procs {
		dcpu := after.procs[i].CPUms - before.procs[i].CPUms
		if pr.role == "router" {
			cpuRouter += dcpu
		} else {
			cpuServers += dcpu
		}
	}
	gc = delta(before.metrics, after.metrics, "runtime_gc_pause_total_ns") / 1e6
	res.set("proc.server_cpu_ms_per_op", cpuServers/ops, "ms", fmt.Sprintf("threatserver CPU over %d processes / %.0f reads", len(f.servers), ops))
	res.set("proc.gc_pause_ms", gc, "ms", "delta of runtime.gc_pause_total_ns over every target")

	// generator self-check
	lt := summarize(append([]float64(nil), ph.open.lateness...), 0.99)
	res.set("load.lateness_p50_ms", lt.P50, "ms", fmt.Sprintf("open loop, n=%d", lt.N))
	res.set("load.lateness_p99_ms", lt.Tail, "ms", fmt.Sprintf("p%.2f of n=%d", lt.TailPct, lt.N))
	un := summarize(append([]float64(nil), ph.untraced.lat...), 0.99)
	tr := summarize(append([]float64(nil), ph.closed.lat...), 0.99)
	res.set("bench.trace_overhead_ratio", tr.P50/un.P50, "ratio", fmt.Sprintf("traced read p50 %.4f ms / untraced %.4f ms", tr.P50, un.P50))

	// workload-specific layers, reported but not in the JSON set
	if w.routed {
		owned := make([]int, len(bases))
		for _, x := range reps {
			owned[x.owner]++
		}
		fmt.Fprintf(out, "# ring: distinct reads per worker %v of %d\n", owned, len(reps))
		j := delta(before.metrics, after.metrics, "shard_batch_joined_total")
		l := delta(before.metrics, after.metrics, "shard_batch_leaders_total")
		res.setExtra("shard.batch_join_ratio", j/(j+l), "ratio", fmt.Sprintf("%.0f joined / %.0f batched reads", j, j+l))
		res.setExtra("shard.retries", delta(before.metrics, after.metrics, "shard_retries_total"), "count", "router retries during timing")
		res.setExtra("proc.router_cpu_ms_per_op", cpuRouter/ops, "ms", "threatrouter CPU / reads")
		res.setExtra("proc.worker_cpu_ms_per_op", cpuServers/ops, "ms", "worker CPU / reads")
	}
	if w.writer {
		var wait, put, searchK []float64
		var putBytes int
		for _, c := range cyc {
			if c.err == nil {
				wait = append(wait, float64(c.jobWait)/1e6)
			}
		}
		for _, r := range replays {
			put = append(put, float64(r.put)/1e6)
			searchK = append(searchK, float64(r.searchK)/1e6)
			putBytes += r.putBytes
		}
		res.setExtra("serve.job_wait_ms", median(wait), "ms", fmt.Sprintf("generation submit to first progress, %d cycles", len(wait)))
		res.setExtra("placement.searchk_ms", median(searchK), "ms", "SearchKCtx on each cycle's request")
		res.setExtra("store.put_ms", median(put), "ms", "Put of each cycle's topology + ensemble")
		res.setExtra("store.bytes_per_cycle", float64(putBytes)/float64(max(len(replays), 1)), "bytes", "topology + ensemble payload")
		res.setExtra("proc.server_cpu_ms_per_cycle", cpuServers/float64(max(len(cyc), 1)), "ms", "threatserver CPU / writer cycles (reads included)")
	}

	printBreakdown(out, w, median(rtts), reps)
	printSelfTimes(out, spans.snapshot())
	return nil
}

// printBreakdown prints the blocking path of a read at p50: the client
// round trip split into the parts the replays measured, with what they
// do not explain.
func printBreakdown(out io.Writer, w workload, rtt float64, reps []readReplay) {
	col := func(f func(readReplay) float64) float64 {
		xs := make([]float64, len(reps))
		for i, x := range reps {
			xs[i] = f(x)
		}
		return median(xs)
	}
	eng := col(func(x readReplay) float64 { return x.engine })
	self := col(func(x readReplay) float64 { return x.handle - x.engine })
	net := col(func(x readReplay) float64 { return x.direct - x.handle })
	parts := eng + self + net
	fmt.Fprintf(out, "# blocking path of one read on %s, medians in us\n", w.name)
	fmt.Fprintf(out, "#   client round trip (traced closed loop)  %10.1f\n", rtt)
	if w.routed {
		rself := col(func(x readReplay) float64 { return x.route - x.direct })
		parts += rself
		fmt.Fprintf(out, "#   router self (shard.self_us)              %10.1f\n", rself)
	}
	fmt.Fprintf(out, "#   loopback hop + HTTP (shard.net_us)       %10.1f\n", net)
	fmt.Fprintf(out, "#   serve self (serve.self_us)               %10.1f\n", self)
	fmt.Fprintf(out, "#   engine cells (engine.evaluate_us × cells)%10.1f\n", eng)
	// The parts are measured one read at a time on an otherwise idle
	// target, so under load the remainder is queueing (positive) or the
	// idle wake-ups the isolated replays paid and the loaded loop did
	// not (negative).
	fmt.Fprintf(out, "#   unexplained remainder                    %10.1f\n", rtt-parts)
}

// printSelfTimes prints each span name's count and median self time.
func printSelfTimes(out io.Writer, spans []span) {
	by := selfByName(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# span self times (median us, span minus children)\n")
	for _, n := range names {
		fmt.Fprintf(out, "#   %-28s n=%-7d %10.1f\n", n, len(by[n]), median(by[n]))
	}
}
