package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// requestTimeout bounds one request; a request that exceeds it counts
// as failed.
const requestTimeout = 15 * time.Second

// newClient returns the generator's HTTP client: at most conns
// keep-alive connections to any one target.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// send performs one request and returns its status and body.
func send(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// readSet is the mix with its verified reference bodies.
type readSet struct {
	reads []readReq
	refs  [][]byte
}

// sample is one completed read.
type sample struct {
	idx   int
	start time.Time
	rtt   time.Duration
}

// readTally accumulates one phase's reads across its senders.
type readTally struct {
	mu        sync.Mutex
	lat       []float64 // ms, successful reads
	samples   []sample  // successful reads, for the traced breakdown
	attempted int
	failed    int
	bytes     int64
	firstErr  error
}

func (t *readTally) record(idx int, start time.Time, lat time.Duration, n int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lat = append(t.lat, float64(lat)/1e6)
	t.samples = append(t.samples, sample{idx: idx, start: start, rtt: lat})
	t.bytes += int64(n)
}

// doRead sends read idx and byte-compares the answer with its
// reference: anything but 200 with the exact reference bytes fails.
func (rs *readSet) doRead(c *http.Client, base string, idx int) (int, error) {
	req, err := rs.reads[idx].newRequest(base)
	if err != nil {
		return 0, err
	}
	status, body, err := send(c, req)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d: %.200s", req.Method, rs.reads[idx].Target, status, body)
	}
	if !bytes.Equal(body, rs.refs[idx]) {
		return 0, fmt.Errorf("%s %s: body differs from reference", req.Method, rs.reads[idx].Target)
	}
	return len(body), nil
}

// closedLoop runs one closed-loop reader for d: it repeatedly walks a
// fresh seeded permutation of the distinct reads, sending the next
// only after the previous completes. spans, when non-nil, receives a
// root span per read.
func closedLoop(c *http.Client, base string, rs *readSet, seed int64, d time.Duration, spans *spanLog, traceBase uint64) *readTally {
	t := &readTally{}
	end := time.Now().Add(d)
	rng := rand.New(rand.NewSource(seed * 7919))
	trace := traceBase
	for time.Now().Before(end) {
		for _, idx := range rng.Perm(len(rs.reads)) {
			if !time.Now().Before(end) {
				break
			}
			trace++
			id := spans.begin("client."+rs.reads[idx].Kind, trace, 0)
			start := time.Now()
			n, err := rs.doRead(c, base, idx)
			lat := time.Since(start)
			spans.end(id)
			t.record(idx, start, lat, n, err)
		}
	}
	return t
}

// arrival is one scheduled open-loop send.
type arrival struct {
	at  time.Duration // offset from the phase start
	idx int           // which distinct read
}

// schedule draws a seeded Poisson arrival sequence at rate req/s over
// d, each arrival naming one of n distinct reads.
func schedule(seed int64, rate float64, d time.Duration, n int) []arrival {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, idx: rng.Intn(n)})
	}
}

// openTally is one open-loop phase: latency from each read's scheduled
// send, service time from its actual send, and how late the generator
// dispatched it.
type openTally struct {
	readTally
	beg, end time.Time
	service  []float64 // ms
	lateness []float64 // ms
}

// openLoop sends the schedule regardless of completions: on every wake
// the dispatcher hands each due arrival to one of workers senders
// (one connection each) and sleeps until the next is due. Latency runs
// from the scheduled time, so a stall shows up in every read queued
// behind it.
func openLoop(c *http.Client, base string, rs *readSet, sched []arrival, workers int, spans *spanLog, traceBase uint64) *openTally {
	t := &openTally{}
	type job struct {
		arrival
		due time.Time
	}
	jobs := make(chan job, len(sched)) // every arrival fits: the dispatcher never blocks
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				id := spans.begin("client.open."+rs.reads[j.idx].Kind, traceBase+uint64(j.at), 0)
				sent := time.Now()
				n, err := rs.doRead(c, base, j.idx)
				done := time.Now()
				spans.end(id)
				t.record(j.idx, sent, done.Sub(j.due), n, err)
				if err == nil {
					t.mu.Lock()
					t.service = append(t.service, float64(done.Sub(sent))/1e6)
					t.mu.Unlock()
				}
			}
		}()
	}
	start := time.Now()
	t.beg = start
	late := make([]float64, 0, len(sched))
	for k := 0; k < len(sched); {
		now := time.Since(start)
		for k < len(sched) && sched[k].at <= now {
			late = append(late, float64(now-sched[k].at)/1e6)
			jobs <- job{arrival: sched[k], due: start.Add(sched[k].at)}
			k++
		}
		if k < len(sched) {
			sleepPrecise(sched[k].at - time.Since(start))
		}
	}
	close(jobs)
	wg.Wait()
	t.end = time.Now()
	t.lateness = late
	return t
}

// sleepPrecise blocks the calling thread for d on a kernel
// high-resolution timer. Go's own timers wake through the network
// poller at millisecond granularity, which left the dispatcher 0.4 to
// 0.7 ms late on a 2-CPU box — longer than a cached read takes.
func sleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
