package engine

import (
	"sync"

	"compoundthreat/internal/attack"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// maxMemoSites bounds the per-pattern memo table (2^S entries). Every
// configuration family in this module has at most four sites; beyond
// the bound the evaluator falls back to per-realization evaluation,
// which is still allocation-free.
const maxMemoSites = 16

// Counts is a fixed-size operational-state histogram, indexed by
// opstate.State. It is the allocation-free accumulator of the
// realization loop; convert to a stats.Profile once per cell.
type Counts [int(opstate.Gray) + 1]int

// Add merges other into c.
func (c *Counts) Add(other *Counts) {
	for i, n := range other {
		c[i] += n
	}
}

// Total returns the number of recorded outcomes.
func (c *Counts) Total() int {
	var t int
	for _, n := range c {
		t += n
	}
	return t
}

// Profile converts the histogram to a stats.Profile, adding states in
// severity order so the result is identical to sequential accumulation.
func (c *Counts) Profile() *stats.Profile {
	p := stats.NewProfile()
	for _, s := range opstate.States() {
		p.AddN(s, c[s])
	}
	return p
}

// Evaluator evaluates one (configuration, attacker capability) cell
// against a compiled failure matrix. It memoizes the worst-case
// operational state per flooded-site pattern: the greedy attacker is a
// pure function of which sites the disaster took out, so a
// configuration with S sites needs at most 2^S attack evaluations no
// matter how many realizations the ensemble has. Not safe for
// concurrent use; give each worker its own Evaluator.
type Evaluator struct {
	m    *FailureMatrix
	cols []int
	an   *attack.Analyzer
	// memo[p] is the outcome of flooded pattern p once have[p] is set.
	memo  []opstate.State
	have  []bool
	flood []bool   // scratch for the non-memoized fallback
	sites []string // scratch for site-asset resolution on Reset
	// Observability counters, resolved once at construction; nil (and
	// therefore free) when instrumentation is disabled.
	memoHits      *obs.Counter
	memoMisses    *obs.Counter
	fallbackEvals *obs.Counter
	realizations  *obs.Counter
}

// NewEvaluator resolves the configuration's site assets to matrix
// columns and validates the configuration and capability once.
func NewEvaluator(m *FailureMatrix, cfg topology.Config, capability threat.Capability) (*Evaluator, error) {
	ev := &Evaluator{}
	if rec := obs.Default(); rec != nil {
		ev.memoHits = rec.Counter("engine.memo_hits")
		ev.memoMisses = rec.Counter("engine.memo_misses")
		ev.fallbackEvals = rec.Counter("engine.fallback_evals")
		ev.realizations = rec.Counter("engine.realizations")
	}
	if err := ev.Reset(m, cfg, capability); err != nil {
		return nil, err
	}
	return ev, nil
}

// Reset rebinds the evaluator to a new (matrix, configuration,
// capability) cell, reusing the memo table, column, and analyzer
// scratch from the previous cell whenever capacities allow. Sweeps
// that evaluate many cells (placement search, figure matrices) reset
// one evaluator per worker instead of re-allocating 2^S memo tables
// per cell.
func (ev *Evaluator) Reset(m *FailureMatrix, cfg topology.Config, capability threat.Capability) error {
	if ev.an == nil {
		an, err := attack.NewAnalyzer(cfg, capability)
		if err != nil {
			return err
		}
		ev.an = an
	} else if err := ev.an.Reset(cfg, capability); err != nil {
		return err
	}
	ev.sites = ev.sites[:0]
	for _, s := range cfg.Sites {
		ev.sites = append(ev.sites, s.AssetID)
	}
	cols, err := m.ColumnsAppend(ev.cols[:0], ev.sites)
	if err != nil {
		return err
	}
	ev.m, ev.cols = m, cols
	if n := len(cols); n <= maxMemoSites {
		size := 1 << uint(n)
		if cap(ev.memo) >= size && cap(ev.have) >= size {
			ev.memo = ev.memo[:size]
			ev.have = ev.have[:size]
			for i := range ev.have {
				ev.have[i] = false
			}
		} else {
			ev.memo = make([]opstate.State, size)
			ev.have = make([]bool, size)
		}
	} else {
		ev.memo, ev.have = nil, nil
		if cap(ev.flood) < n {
			ev.flood = make([]bool, 0, n)
		}
	}
	return nil
}

// EvaluatorPool recycles evaluators (and their 2^S memo tables) across
// the cells of a sweep. Get either resets a pooled evaluator to the
// requested cell or constructs a fresh one; Put returns it for reuse.
// Safe for concurrent use; results are unaffected by pooling because
// Reset clears the memo occupancy table.
type EvaluatorPool struct {
	pool sync.Pool
}

// Get returns an evaluator bound to the given cell.
func (p *EvaluatorPool) Get(m *FailureMatrix, cfg topology.Config, capability threat.Capability) (*Evaluator, error) {
	if v := p.pool.Get(); v != nil {
		ev := v.(*Evaluator)
		if err := ev.Reset(m, cfg, capability); err != nil {
			return nil, err
		}
		return ev, nil
	}
	return NewEvaluator(m, cfg, capability)
}

// Put returns an evaluator to the pool.
func (p *EvaluatorPool) Put(ev *Evaluator) {
	if ev != nil {
		p.pool.Put(ev)
	}
}

// AddRange evaluates realizations [lo, hi) into counts. The loop body
// performs no allocations: patterns are read straight from the
// bit-packed matrix and outcomes come from the memo table (filled
// lazily through the reusable analyzer).
func (ev *Evaluator) AddRange(counts *Counts, lo, hi int) error {
	if ev.memo != nil {
		misses := 0
		for r := lo; r < hi; r++ {
			p := ev.m.Pattern(r, ev.cols)
			if !ev.have[p] {
				misses++
				s, err := ev.an.EvaluateMask(p)
				if err != nil {
					return err
				}
				ev.memo[p], ev.have[p] = s, true
			}
			counts[ev.memo[p]]++
		}
		// Flush memo statistics once per range: the loop body itself
		// stays branch-light and allocation-free in both modes.
		ev.memoHits.Add(int64(hi - lo - misses))
		ev.memoMisses.Add(int64(misses))
		ev.realizations.Add(int64(hi - lo))
		return nil
	}
	for r := lo; r < hi; r++ {
		ev.flood = ev.m.Gather(ev.flood[:0], r, ev.cols)
		s, err := ev.an.Evaluate(ev.flood)
		if err != nil {
			return err
		}
		counts[s]++
	}
	ev.fallbackEvals.Add(int64(hi - lo))
	ev.realizations.Add(int64(hi - lo))
	return nil
}

// AddWeighted evaluates distinct rows [lo, hi) of the compressed view
// into counts, adding each row's multiplicity to its outcome bucket.
// Because the attacker is a pure function of the flooded pattern, the
// result is bit-identical to AddRange over the realizations the rows
// stand for — at O(distinct rows) cost. The loop body performs no
// allocations. cm must be a compression of the evaluator's matrix.
func (ev *Evaluator) AddWeighted(counts *Counts, cm *CompressedMatrix, lo, hi int) error {
	if cm.Source() != ev.m {
		return errCompressedMismatch
	}
	if ev.memo != nil {
		misses, covered := 0, 0
		for i := lo; i < hi; i++ {
			p := cm.Pattern(i, ev.cols)
			if !ev.have[p] {
				misses++
				s, err := ev.an.EvaluateMask(p)
				if err != nil {
					return err
				}
				ev.memo[p], ev.have[p] = s, true
			}
			w := cm.weights[i]
			counts[ev.memo[p]] += w
			covered += w
		}
		ev.memoHits.Add(int64(hi - lo - misses))
		ev.memoMisses.Add(int64(misses))
		ev.realizations.Add(int64(covered))
		return nil
	}
	covered := 0
	for i := lo; i < hi; i++ {
		ev.flood = cm.Gather(ev.flood[:0], i, ev.cols)
		s, err := ev.an.Evaluate(ev.flood)
		if err != nil {
			return err
		}
		w := cm.weights[i]
		counts[s] += w
		covered += w
	}
	ev.fallbackEvals.Add(int64(hi - lo))
	ev.realizations.Add(int64(covered))
	return nil
}

// CellCountsCompressed is CellCounts over a compressed view: every
// distinct pattern is evaluated exactly once and weighted by its
// multiplicity, so the cell costs O(distinct rows) instead of
// O(realizations). It is Cells.Counts on a fresh entry point, so the
// cell takes the same kernel-or-evaluator dispatch as every sweep.
// Results are bit-identical to CellCounts on the source matrix.
func CellCountsCompressed(cm *CompressedMatrix, cfg topology.Config, capability threat.Capability, workers int) (Counts, error) {
	return NewCells(cm).Counts(cfg, capability, workers)
}

// CellProfileCompressed is CellCountsCompressed rendered as a
// stats.Profile.
func CellProfileCompressed(cm *CompressedMatrix, cfg topology.Config, capability threat.Capability, workers int) (*stats.Profile, error) {
	counts, err := CellCountsCompressed(cm, cfg, capability, workers)
	if err != nil {
		return nil, err
	}
	return counts.Profile(), nil
}

// CellCounts evaluates every realization of the cell, splitting the
// realization range into per-worker chunks (each with its own
// Evaluator) and merging chunk histograms in fixed index order, so the
// result is bit-identical to a sequential pass.
func CellCounts(m *FailureMatrix, cfg topology.Config, cap threat.Capability, workers int) (Counts, error) {
	var total Counts
	workers = Workers(workers)
	if workers <= 1 || m.Rows() < 2*workers {
		ev, err := NewEvaluator(m, cfg, cap)
		if err != nil {
			return Counts{}, err
		}
		err = ev.AddRange(&total, 0, m.Rows())
		return total, err
	}
	parts := chunks(m.Rows(), workers)
	results := make([]Counts, len(parts))
	err := ForEach(workers, len(parts), func(i int) error {
		ev, err := NewEvaluator(m, cfg, cap)
		if err != nil {
			return err
		}
		return ev.AddRange(&results[i], parts[i].lo, parts[i].hi)
	})
	if err != nil {
		return Counts{}, err
	}
	for i := range results {
		total.Add(&results[i])
	}
	return total, nil
}

// CellProfile is CellCounts rendered as a stats.Profile.
func CellProfile(m *FailureMatrix, cfg topology.Config, cap threat.Capability, workers int) (*stats.Profile, error) {
	counts, err := CellCounts(m, cfg, cap, workers)
	if err != nil {
		return nil, err
	}
	return counts.Profile(), nil
}
