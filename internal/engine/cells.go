package engine

import (
	"sync"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// maxShapeTables bounds the process-wide StateByCount table cache.
// The serving and batch callers see a handful of configuration shapes;
// past the bound a shape's table is rebuilt per cell rather than
// cached, so an adversarial stream of shapes cannot grow the cache
// without limit.
const maxShapeTables = 64

// shapeKey identifies the StateByCount table of a symmetric
// configuration: everything the greedy attacker and the Table I rules
// read from a validated symmetric configuration except which assets
// host its sites.
type shapeKey struct {
	arch                 topology.Architecture
	sites, replicas      int
	f, k, minActiveSites int
	capability           threat.Capability
}

// shapeTables caches StateByCount tables across every Cells value. A
// table is a pure function of its shapeKey, so sharing one cannot
// change a result, and one-shot sweeps over fresh views (a batch
// figure sweep, a placement search, a cold served view) reuse the
// tables earlier sweeps built instead of rebuilding them per value.
var shapeTables = struct {
	sync.RWMutex
	m map[shapeKey][]opstate.State
}{m: make(map[shapeKey][]opstate.State)}

// shapeTable returns the StateByCount table for a symmetric
// configuration, or nil when the cell needs the evaluator — an
// asymmetric configuration, or an invalid one (the evaluator then
// reports the validation error).
func shapeTable(cfg topology.Config, capability threat.Capability) []opstate.State {
	if !SymmetricConfig(cfg) {
		return nil
	}
	key := shapeKey{
		arch: cfg.Arch, sites: len(cfg.Sites), replicas: cfg.Sites[0].Replicas,
		f: cfg.IntrusionsTolerated, k: cfg.RecoverySlots, minActiveSites: cfg.MinActiveSites,
		capability: capability,
	}
	shapeTables.RLock()
	tbl, ok := shapeTables.m[key]
	shapeTables.RUnlock()
	if ok {
		return tbl
	}
	tbl, err := StateByCount(cfg, capability)
	if err != nil {
		return nil
	}
	shapeTables.Lock()
	if len(shapeTables.m) < maxShapeTables {
		shapeTables.m[key] = tbl
	}
	shapeTables.Unlock()
	return tbl
}

// Cells is the evaluation entry point over one compressed view: every
// (configuration, attacker capability) cell of a sweep, a placement
// search, or a served query goes through Counts. It dispatches each
// cell to the cheapest bit-identical path — the word-parallel
// MaskKernel when SymmetricConfig holds (with the StateByCount table
// built once per configuration shape and capability, and shared by
// every Cells value), the memoized
// Evaluator.AddWeighted otherwise — and recycles kernels and
// evaluators across cells. Safe for concurrent use.
type Cells struct {
	cm      *CompressedMatrix
	kernels sync.Pool
	evals   EvaluatorPool

	// realizations counts the kernel arm's weighted coverage, as
	// Evaluator.AddWeighted does for the evaluator arm.
	realizations *obs.Counter
}

// NewCells returns the entry point over cm. Observability counters
// resolve against the recorder enabled at construction time.
func NewCells(cm *CompressedMatrix) *Cells {
	return &Cells{
		cm:           cm,
		realizations: obs.Default().Counter("engine.realizations"),
	}
}

// Matrix returns the compressed view the cells are evaluated over.
func (c *Cells) Matrix() *CompressedMatrix { return c.cm }

// Counts evaluates one cell over every distinct row, splitting the
// rows across up to workers goroutines (0 = NumCPU) and merging the
// chunk histograms in fixed order. Results are bit-identical to
// CellCounts over the source matrix for every worker count and on
// either arm; with one worker the steady state allocates nothing.
func (c *Cells) Counts(cfg topology.Config, capability threat.Capability, workers int) (Counts, error) {
	var total Counts
	d := c.cm.DistinctRows()
	workers = Workers(workers)
	if workers <= 1 || d < 2*workers {
		err := c.addRange(&total, cfg, capability, 0, d)
		return total, err
	}
	parts := chunks(d, workers)
	results := make([]Counts, len(parts))
	err := ForEach(workers, len(parts), func(i int) error {
		return c.addRange(&results[i], cfg, capability, parts[i].lo, parts[i].hi)
	})
	if err != nil {
		return Counts{}, err
	}
	for i := range results {
		total.Add(&results[i])
	}
	return total, nil
}

// addRange evaluates distinct rows [lo, hi) of one cell into counts.
// The kernel arm validates the configuration itself, because a cached
// table was validated only for the first configuration of its shape;
// the evaluator arm validates when it binds its analyzer.
func (c *Cells) addRange(counts *Counts, cfg topology.Config, capability threat.Capability, lo, hi int) error {
	if tbl := shapeTable(cfg, capability); tbl != nil {
		if err := cfg.Validate(); err != nil {
			return err
		}
		k, _ := c.kernels.Get().(*MaskKernel)
		if k == nil {
			k = NewMaskKernel()
		}
		err := k.BindConfig(c.cm, tbl, cfg)
		if err == nil {
			var part Counts
			k.AddWeighted(&part, lo, hi)
			c.realizations.Add(int64(part.Total()))
			counts.Add(&part)
		}
		c.kernels.Put(k)
		return err
	}
	ev, err := c.evals.Get(c.cm.src, cfg, capability)
	if err != nil {
		return err
	}
	err = ev.AddWeighted(counts, c.cm, lo, hi)
	c.evals.Put(ev)
	return err
}
