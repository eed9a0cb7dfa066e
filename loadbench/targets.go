package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Startup ensemble flags shared by every threatserver the benchmark
// launches: the paper's 1000-realization hurricane ensemble plus the
// earthquake ensemble, both at a fixed seed so the in-process oracle
// can regenerate them bit for bit. The runtime sampler runs at 250ms
// so GC pause deltas around a timed phase are current.
const (
	startupRealizations = 1000
	startupSeed         = 11
)

func serverFlags() []string {
	return []string{
		"-realizations", fmt.Sprint(startupRealizations),
		"-seed", fmt.Sprint(startupSeed),
		"-quake",
		"-runtime-interval", "250ms",
		"-drain", "5s",
	}
}

// readyTimeout bounds one launch → ready wait.
const readyTimeout = 90 * time.Second

// proc is one launched target process.
type proc struct {
	role string // server, worker or router
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	logs sync.WaitGroup
}

// launch starts bin with args plus an ephemeral listen address and
// waits for the "listening on" line the binaries print once their
// startup ensembles are generated and the listener is bound. Everything
// the process writes to stderr is copied to logPath.
func launch(role, bin, logPath string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = io.Discard
	// A target must not outlive the generator, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	p := &proc{role: role, cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	p.logs.Add(1)
	go func() {
		defer p.logs.Done()
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, a, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening (log %s)", role, logPath)
	case <-time.After(readyTimeout):
		p.stop()
		return nil, fmt.Errorf("%s not listening after %v (log %s)", role, readyTimeout, logPath)
	}
}

// pid is the target's process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM, waits for the drain, and kills the process if it
// outlives the grace period. It always reaps the process.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
	}
	p.logs.Wait()
	_ = p.cmd.Wait()
}

// fleet is one workload's running targets.
type fleet struct {
	procs   []*proc // workers/servers first, router last when routed
	entry   string  // base URL the clients send to
	servers []*proc // the threatserver processes
	router  *proc
}

func (f *fleet) stop() {
	// Router first, so no request is forwarded to a draining worker.
	if f.router != nil {
		f.router.stop()
	}
	var wg sync.WaitGroup
	for _, p := range f.servers {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// pids lists every target process id.
func (f *fleet) pids() []int {
	out := make([]int, 0, len(f.procs))
	for _, p := range f.procs {
		out = append(out, p.pid())
	}
	return out
}

// bases lists every target's base URL (for metrics scrapes).
func (f *fleet) bases() []string {
	out := make([]string, 0, len(f.procs))
	for _, p := range f.procs {
		out = append(out, p.base)
	}
	return out
}

// startFleet launches the workload's targets and returns once every
// one is ready: each threatserver listening (startup ensembles
// generated) and, when routed, the router reporting every worker
// healthy with both startup ensembles' fingerprints learned.
func startFleet(env *benchEnv, w workload, attempt int) (*fleet, error) {
	n := 1
	if w.routed {
		n = 2
	}
	f := &fleet{}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	args := serverFlags()
	if w.writer {
		dir := filepath.Join(env.work, fmt.Sprintf("store-%d", attempt))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		args = append(args, "-store", dir)
	}
	f.servers = make([]*proc, n)
	for i := 0; i < n; i++ {
		role := "server"
		if w.routed {
			role = "worker"
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			log := filepath.Join(env.work, fmt.Sprintf("%s-%d-%d.log", role, attempt, i))
			p, err := launch(role, env.serverBin, log, args...)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			f.servers[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range f.servers {
		if p != nil {
			f.procs = append(f.procs, p)
		}
	}
	if len(errs) > 0 {
		f.stop()
		return nil, errors.Join(errs...)
	}
	f.entry = f.servers[0].base
	if !w.routed {
		return f, nil
	}
	backends := make([]string, n)
	for i, p := range f.servers {
		backends[i] = p.base
	}
	log := filepath.Join(env.work, fmt.Sprintf("router-%d.log", attempt))
	r, err := launch("router", env.routerBin, log, "-backends", strings.Join(backends, ","), "-drain", "5s")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = r
	f.procs = append(f.procs, r)
	f.entry = r.base
	if _, err := waitRouted(func() ([]byte, error) { return getBody(env.client, r.base+"/v1/healthz") }, n); err != nil {
		f.stop()
		return nil, fmt.Errorf("router %s: %w", r.base, err)
	}
	return f, nil
}

// waitRouted polls a router's health, read by fetch, until it lists
// backends workers, every one healthy and advertising both startup
// ensembles, and returns the ensembles' fingerprints as it learned
// them.
func waitRouted(fetch func() ([]byte, error), backends int) (map[string]string, error) {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		var h struct {
			Backends []struct {
				Healthy   bool              `json:"healthy"`
				Ensembles map[string]string `json:"ensembles"`
			} `json:"backends"`
		}
		if body, err := fetch(); err == nil && json.Unmarshal(body, &h) == nil {
			ready := len(h.Backends) == backends
			for _, b := range h.Backends {
				ready = ready && b.Healthy && b.Ensembles["hurricane"] != "" && b.Ensembles["quake"] != ""
			}
			if ready {
				return h.Backends[0].Ensembles, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("backends not ready after %v", readyTimeout)
}

// getBody fetches url and returns its body when the status is 200.
func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
