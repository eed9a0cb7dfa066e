// Package engine is the parallel, allocation-free core of the
// compound-threat analysis pipeline. The paper's Figure 5 sweep is
// embarrassingly parallel — every hurricane realization is evaluated
// independently, and every figure, placement candidate, and power-sweep
// point is an independent (configuration, scenario) cell — so the
// engine splits the work along both axes:
//
//   - A FailureMatrix compiles a disaster ensemble against a site list
//     once: asset IDs are resolved to column indices up front and the
//     per-realization failure flags are bit-packed into uint64 words,
//     so the realization loop does no map lookups and no allocations.
//   - An Evaluator walks the matrix for one (configuration, attacker
//     capability) cell with a reusable attack.Analyzer, memoizing the
//     worst-case outcome per flooded-site pattern (a configuration
//     with S sites has at most 2^S patterns, so a 1000-realization
//     sweep collapses to a handful of attack evaluations plus pure
//     bit-twiddling).
//   - Cells is the evaluation entry point every caller uses: over a
//     row-deduplicated CompressedMatrix it sends each cell to the
//     word-parallel MaskKernel when the configuration is symmetric
//     (SymmetricConfig) and to the memoized Evaluator otherwise.
//     CellCounts and CellProfile over the uncompressed matrix remain
//     as the reference the compressed path is tested against.
//   - ForEach is the bounded worker pool used for realization chunks,
//     (configuration, scenario) cells, placement candidates, and
//     power-sweep points.
//
// All results are deterministic and bit-identical to the sequential
// reference implementations: outcomes are integer state counts, chunk
// results are merged in fixed index order, and the greedy attacker is a
// pure function of the flooded pattern.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compoundthreat/internal/obs"
)

// Source is the minimal ensemble view the engine compiles from. It is
// a subset of analysis.DisasterEnsemble, so any disaster ensemble in
// this module satisfies it. Implementations must be safe for
// concurrent readers (all ensembles in this module are: they are
// immutable after generation).
type Source interface {
	// Size returns the number of realizations.
	Size() int
	// FailureVector returns, for realization r, the failed flags for
	// the given asset IDs in order.
	FailureVector(r int, assetIDs []string) ([]bool, error)
}

// VectorAppender is the optional allocation-free variant of
// Source.FailureVector: implementations append the flags to dst and
// return the extended slice. The engine uses it when available so
// matrix compilation reuses one buffer for every realization.
type VectorAppender interface {
	AppendFailureVector(dst []bool, r int, assetIDs []string) ([]bool, error)
}

// ColumnAppender is the optional column-major accessor: implementations
// append one asset's failure flags for every realization as a
// little-endian bitset (bit r%64 of word r/64 is realization r; bits
// past the realization count are ignored). The engine prefers it for
// matrix compilation — the asset resolves once per column instead of
// once per (realization, asset) cell, and the transpose into row-major
// words walks only the set bits.
type ColumnAppender interface {
	AppendFailureBits(dst []uint64, assetID string) ([]uint64, error)
}

// Workers resolves a worker-count option: values above zero are used
// as given, zero (the default) means runtime.NumCPU().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForEachCtx is ForEach with request-scoped tracing: when ctx carries
// a trace span (obs.SpanFromContext), the whole fan-out is recorded as
// an "engine.foreach" child span, so a slow request's trace shows the
// time spent inside the parallel sweep. With tracing off it costs one
// nil check over ForEach.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	sp := obs.SpanFromContext(ctx).StartChild("engine.foreach")
	err := ForEach(workers, n, fn)
	sp.End()
	return err
}

// ForEach runs fn(i) for every i in [0, n) across up to workers
// goroutines (0 = NumCPU). Items are claimed from an atomic counter,
// so callers must make fn(i) write only to its own slot of any shared
// output — then results are deterministic regardless of scheduling.
// The first error observed stops the remaining work and is returned.
//
// When observability is enabled (obs.Enable), every call records its
// wall time ("engine.foreach_wall"), per-worker busy time
// ("engine.worker_busy"), and a tasks-per-worker histogram; with it
// disabled the pool is unchanged and allocation-free.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	rec := obs.Default()
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if rec != nil {
		defer rec.StartSpan("engine.foreach_wall").End()
		rec.Counter("engine.foreach_calls").Add(1)
		rec.Counter("engine.foreach_tasks").Add(int64(n))
		rec.Counter("engine.foreach_workers").Add(int64(workers))
	}
	if workers <= 1 {
		if rec != nil {
			defer rec.StartSpan("engine.worker_busy").End()
			rec.Histogram("engine.tasks_per_worker").Observe(int64(n))
		}
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tasks int64
			var start time.Time
			if rec != nil {
				start = time.Now()
				defer func() {
					rec.Timer("engine.worker_busy").Record(time.Since(start))
					rec.Histogram("engine.tasks_per_worker").Observe(tasks)
				}()
			}
			for {
				if failed.Load() {
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				tasks++
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// chunk is a half-open realization range.
type chunk struct{ lo, hi int }

// chunks splits [0, n) into at most k near-equal ranges.
func chunks(n, k int) []chunk {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	out := make([]chunk, 0, k)
	size, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out = append(out, chunk{lo, hi})
		lo = hi
	}
	return out
}
