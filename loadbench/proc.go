package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"compoundthreat/internal/promtext"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procSample is one reading of a target process's /proc files.
type procSample struct {
	CPUms float64 // utime + stime
	HWMkB int64   // VmHWM, the resident-set high-water mark
}

func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return procSample{}, err
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	defer f.Close()
	hwm, err := parseStatusHWM(f)
	if err != nil {
		return procSample{}, err
	}
	return procSample{CPUms: cpu, HWMkB: hwm}, nil
}

// parseStatCPU returns utime+stime in milliseconds from the contents
// of /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command terminator")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("stat: %w", err)
	}
	return float64(ut+st) * 1000 / clockTicks, nil
}

// parseStatusHWM returns VmHWM in kB from /proc/<pid>/status.
func parseStatusHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		val, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM %q", val)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("status: no VmHWM")
}

// parseCPUSteal returns the stolen and the total ticks of every CPU
// from the aggregate "cpu" line of /proc/stat: user nice system idle
// iowait irq softirq steal (guest time is already counted in user).
func parseCPUSteal(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: no aggregate cpu line with steal in %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return steal, total, nil
}

// cpuReading is one reading of /proc/stat's steal and total ticks.
type cpuReading struct {
	steal, total uint64
	ok           bool
}

func readCPU() cpuReading {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuReading{}
	}
	steal, total, err := parseCPUSteal(string(b))
	return cpuReading{steal: steal, total: total, ok: err == nil}
}

// stealShare is the share of this VM's CPU time the host gave to other
// tenants between two readings; 0 when either is missing.
func stealShare(a, b cpuReading) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// scrape fetches and parses one process's /v1/metrics exposition.
func scrape(c *http.Client, base string) (*promtext.Metrics, error) {
	resp, err := c.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics %s: status %d", base, resp.StatusCode)
	}
	return promtext.Parse(string(body))
}

// counterSet is a set of scrapes, one per target process, taken at the
// same moment; a sample missing from a scrape counts as zero (a
// counter registers lazily on first use).
type counterSet []*promtext.Metrics

func (cs counterSet) sum(name string) float64 {
	var t float64
	for _, m := range cs {
		if v, ok := m.Get(name); ok {
			t += v
		}
	}
	return t
}

// delta is after − before for an unlabeled sample summed over the
// processes.
func delta(before, after counterSet, name string) float64 {
	return after.sum(name) - before.sum(name)
}
