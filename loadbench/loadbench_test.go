package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/promtext"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 400, 5*time.Second, 40)
	b := schedule(7, 400, 5*time.Second, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 400, 5*time.Second, 40)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson at 400/s over 5 s: 2000 expected, sd ~45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals, want about 2000", n)
	}
	for i, x := range a {
		if x.at >= 5*time.Second || (i > 0 && x.at < a[i-1].at) || x.idx < 0 || x.idx >= 40 {
			t.Fatalf("arrival %d = %+v out of order or range", i, x)
		}
	}
}

func TestReadMixDeterministicAndFitsCache(t *testing.T) {
	a, b := makeReadMix(3), makeReadMix(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different read mixes")
	}
	if reflect.DeepEqual(a, makeReadMix(4)) {
		t.Fatal("different seeds gave the same read mix")
	}
	seen := map[string]bool{}
	kinds := map[string]int{}
	for _, r := range a {
		if seen[r.key()] {
			t.Fatalf("duplicate read %s", r.Target)
		}
		seen[r.key()] = true
		kinds[r.Kind]++
	}
	if want := map[string]int{"sweep": 24, "sweep_post": 24, "figure": 12, "placement": 4}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("reads per kind %v, want %v", kinds, want)
	}
	// One ranking per ranking view: both ensembles, with and without a
	// fixed data center.
	rank := map[string]bool{}
	for _, r := range a {
		if r.Kind == "placement" {
			rank[r.Ensemble+"|"+r.DataCenter] = true
		}
	}
	if len(rank) != 4 {
		t.Fatalf("rankings cover %d views, want 4", len(rank))
	}
	for seed := int64(1); seed <= 50; seed++ {
		n, err := distinctViews(makeReadMix(seed))
		if err != nil {
			t.Fatal(err)
		}
		if n > viewCacheCapacity {
			t.Fatalf("seed %d: %d views exceed the cache", seed, n)
		}
	}
}

func TestCycleInputsVaryContent(t *testing.T) {
	a, b := makeCycle(1, 0), makeCycle(1, 1)
	if !reflect.DeepEqual(a, makeCycle(1, 0)) {
		t.Fatal("cycle inputs not deterministic")
	}
	if a.topo.Name == b.topo.Name || a.params.Seed == b.params.Seed || a.client == b.client {
		t.Fatal("consecutive cycles share a topology, storm seed or client id")
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		p50     float64
		tail    float64
		tailPct float64
	}{
		{n: 1000, p50: 500, tail: 990, tailPct: 99},       // p99 has exactly 10 beyond
		{n: 2000, p50: 1000, tail: 1980, tailPct: 99},     // 20 beyond
		{n: 500, p50: 250, tail: 490, tailPct: 98},        // lowered to keep 10 beyond
		{n: 15, p50: 8, tail: 8, tailPct: 100 * 8.0 / 15}, // no tail qualifies: median
	} {
		d := summarize(seq(c.n), 0.99)
		if d.N != c.n || d.P50 != c.p50 || d.Tail != c.tail || d.TailPct != c.tailPct {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v", c.n, d, c.p50, c.tail, c.tailPct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > d.Tail {
				beyond++
			}
		}
		if c.n > minTail && beyond < minTail && d.Tail != d.P50 {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestMedianRule(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2}, {[]float64{5}, 5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median %v = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestStealShare(t *testing.T) {
	steal, total, err := parseCPUSteal("cpu  100 5 30 800 10 0 5 50 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil || steal != 50 || total != 1000 {
		t.Fatalf("steal %d total %d err %v, want 50 of 1000", steal, total, err)
	}
	if _, _, err := parseCPUSteal("cpu0 1 2 3\n"); err == nil {
		t.Fatal("stat without the aggregate line parsed")
	}
	a, b := cpuReading{steal: 5, total: 20, ok: true}, cpuReading{steal: 15, total: 60, ok: true}
	if got := stealShare(a, b); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("steal share %v, want 0.25", got)
	}
	if got := stealShare(cpuReading{}, b); got != 0 {
		t.Errorf("a missing reading gave steal %v, want 0", got)
	}
}

func TestCacheCountsCheck(t *testing.T) {
	hot, jobs := workloads[0], workloads[2]
	for _, c := range []struct {
		name string
		w    workload
		c    cacheCounts
		bad  int
	}{
		{"warm reads", hot, cacheCounts{hits: 5000}, 0},
		{"warm read missed", hot, cacheCounts{hits: 4999, misses: 1, matrices: 1}, 1},
		{"warm read compiled", hot, cacheCounts{hits: 5000, matrices: 1}, 2},
		{"no reads counted", hot, cacheCounts{}, 1},
		{"writer cold views", jobs, cacheCounts{hits: 900, misses: 40, matrices: 80, searches: 40}, 0},
		{"compile without a miss", jobs, cacheCounts{hits: 900, misses: 40, matrices: 81, searches: 40}, 1},
	} {
		if got := c.c.check(c.w); len(got) != c.bad {
			t.Errorf("%s: problems %q, want %d", c.name, got, c.bad)
		}
		res := newResult()
		for _, p := range c.c.check(c.w) {
			res.invalid("%s", p)
		}
		if res.correct != (c.bad == 0) {
			t.Errorf("%s: correct = %t", c.name, res.correct)
		}
	}
}

func TestMissingMetricInvalidates(t *testing.T) {
	res := newResult()
	res.setExtra("open_p99_ms", math.NaN(), "ms", "")
	if !res.correct || len(res.problems) != 1 {
		t.Fatalf("a missing extra metric: correct %t, problems %q", res.correct, res.problems)
	}
	res.set("read_p50_ms", math.NaN(), "ms", "")
	if res.correct || res.metrics["read_p50_ms"].Value != 0 {
		t.Fatalf("a missing gated metric left the run correct (%+v)", res.metrics)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{Name: "d", ID: 5, Parent: 2, Start: 12, End: 18},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	by := selfByName(spans)
	if len(by["root"]) != 1 || by["root"][0] != 0.05 {
		t.Fatalf("selfByName root = %v us, want [0.05]", by["root"])
	}
}

func TestSpanLogNilIsOff(t *testing.T) {
	var l *spanLog
	if id := l.begin("x", 1, 0); id != 0 {
		t.Fatalf("nil log returned span id %d", id)
	}
	ran := false
	if d := l.timed("x", 1, 0, func(int) { ran = true }); !ran || d < 0 {
		t.Fatal("nil log did not run or time the call")
	}
	if l.snapshot() != nil {
		t.Fatal("nil log recorded spans")
	}
}

func TestMetricsDelta(t *testing.T) {
	parse := func(text string) *promtext.Metrics {
		m, err := promtext.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := counterSet{
		parse("# TYPE serve_cache_hits_total counter\nserve_cache_hits_total 10\n# TYPE serve_latency_ns_sweep histogram\nserve_latency_ns_sweep_bucket{le=\"+Inf\"} 4\nserve_latency_ns_sweep_sum 4000\nserve_latency_ns_sweep_count 4\n"),
		parse("# TYPE serve_cache_hits_total counter\nserve_cache_hits_total 1\n"),
	}
	after := counterSet{
		parse("# TYPE serve_cache_hits_total counter\nserve_cache_hits_total 25\n# TYPE serve_latency_ns_sweep histogram\nserve_latency_ns_sweep_bucket{le=\"+Inf\"} 6\nserve_latency_ns_sweep_sum 9000\nserve_latency_ns_sweep_count 6\n"),
		parse("# TYPE serve_cache_hits_total counter\nserve_cache_hits_total 3\n# TYPE serve_cache_misses_total counter\nserve_cache_misses_total 2\n"),
	}
	for name, want := range map[string]float64{
		"serve_cache_hits_total":       17, // summed over both processes
		"serve_cache_misses_total":     2,  // absent before: registered lazily
		"serve_latency_ns_sweep_sum":   5000,
		"serve_latency_ns_sweep_count": 2,
		"serve_jobs_done_total":        0,
	} {
		if got := delta(before, after, name); got != want {
			t.Errorf("delta %s = %v, want %v", name, got, want)
		}
	}
}

func TestParseProc(t *testing.T) {
	// Field 2 holds spaces and a ')' — fields must count from the last one.
	stat := "4242 (threat server) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 100 1000000 2000 18446744073709551615"
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != (250+75)*10 {
		t.Fatalf("cpu %v ms, want 3250", cpu)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Fatal("short stat line parsed")
	}
	status := "Name:\tthreatserver\nVmPeak:\t  900000 kB\nVmHWM:\t   15872 kB\nVmRSS:\t   14000 kB\nThreads:\t8\n"
	hwm, err := parseStatusHWM(strings.NewReader(status))
	if err != nil || hwm != 15872 {
		t.Fatalf("hwm %d err %v, want 15872", hwm, err)
	}
	if _, err := parseStatusHWM(strings.NewReader("Name:\tx\nVmHWM:\t12 MB\n")); err == nil {
		t.Fatal("non-kB VmHWM parsed")
	}
	if _, err := parseStatusHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM parsed")
	}
}
