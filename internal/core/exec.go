package core

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"mobidx/internal/dual"
)

// Executor runs independent subqueries on a bounded pool of workers. It is
// the fan-out engine behind the parallel query paths (DualBPlus
// QueryParallel and the 2-dimensional methods in package twod): a query is
// decomposed into its independent pieces — the Lemma 1 subterrain and
// endpoint subqueries, the per-velocity-sign observation scans, the
// per-axis 1-dimensional queries of the 2D decomposition — and the pieces
// run concurrently, each collecting into its own result bucket, with a
// deterministic merge at the end.
//
// An Executor is stateless apart from its worker bound; one Executor may
// be shared by any number of concurrent queries. With Workers() == 1 the
// tasks run sequentially in submission order on the calling goroutine, so
// a single-worker executor is the sequential reference implementation
// against which the parallel paths are differential-tested.
type Executor struct {
	workers int
}

// NewExecutor returns an executor bounded to the given number of
// concurrent workers. Zero (or negative) selects GOMAXPROCS.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers}
}

// Workers returns the concurrency bound.
func (e *Executor) Workers() int { return e.workers }

// Run executes every task, at most Workers() concurrently, and waits for
// all of them. The first error encountered is returned (the remaining
// tasks still run to completion, so no goroutine outlives Run). With one
// worker the tasks run inline, in order, with no goroutines at all.
func (e *Executor) Run(tasks []func() error) error {
	//mobidxlint:allow ctxflow -- compat facade: ctx-less entry point for callers with no deadline; cancellation users call RunCtx
	return e.RunCtx(context.Background(), tasks)
}

// RunCtx is Run with a cancellation path: the context is checked before
// every task is started, so a deadline or cancellation stops the fan-out
// at task granularity — tasks not yet begun are skipped, tasks already
// running finish (no goroutine is ever abandoned mid-flight), and the
// context's error is returned once everything started has drained. A task
// that wants finer-grained cancellation must watch the context itself.
// Task errors take precedence over the context error in the return value,
// since they describe what actually went wrong first. The workers <= 1
// path stays inline — sequential, in order, zero goroutines — so a
// single-worker executor remains the sequential reference implementation.
func (e *Executor) RunCtx(ctx context.Context, tasks []func() error) error {
	if e.workers <= 1 || len(tasks) <= 1 {
		var first error
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				if first == nil {
					first = err
				}
				break
			}
			if err := t(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	var ctxErr error
	for _, t := range tasks {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		t := t
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			if err := t(); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctxErr
}

// MergeOIDs returns the ascending, deduplicated union of per-task result
// buckets; the buckets themselves are left untouched. Because each
// subquery's emissions are deterministic and scheduling only permutes
// whole buckets, the merged slice is byte-identical for every worker count
// — the property the differential tests pin down. Every union on the
// serving path goes through it: the Dual-B+ subquery merge, the router's
// fan-out merge, and package twod's per-axis and per-quadrant buckets.
//
// The path is chosen from the n emissions alone. When the OID span
// [min, max] fits in a bitmap of at most n 64-bit words — wide queries,
// whose answers cover a large share of the OID space — each emission sets
// one bit and a trailing-zeros scan writes the answer already sorted, in
// O(n) time. A sparser span, where the bitmap would cost more than it
// saves, falls back to sorting the concatenation in O(n log n). Memory is
// O(n) for any OID distribution, including OIDs near math.MaxUint64.
func MergeOIDs(buckets [][]dual.OID) []dual.OID {
	n := 0
	lo, hi := dual.OID(math.MaxUint64), dual.OID(0)
	for _, b := range buckets {
		n += len(b)
		for _, id := range b {
			lo = min(lo, id)
			hi = max(hi, id)
		}
	}
	if n == 0 {
		return nil
	}
	if words := uint64(hi-lo)/64 + 1; words <= uint64(n) {
		set := make([]uint64, words)
		for _, b := range buckets {
			for _, id := range b {
				off := uint64(id - lo)
				set[off/64] |= 1 << (off % 64)
			}
		}
		size := 0
		for _, w := range set {
			size += bits.OnesCount64(w)
		}
		out := make([]dual.OID, size)
		k := 0
		for i, w := range set {
			base := lo + dual.OID(i)*64
			for ; w != 0; w &= w - 1 {
				out[k] = base + dual.OID(bits.TrailingZeros64(w))
				k++
			}
		}
		return out
	}
	out := make([]dual.OID, 0, n)
	for _, b := range buckets {
		out = append(out, b...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// RunSubqueries runs a set of emit-style subqueries on the executor, each
// collecting into a private bucket, and returns the deterministic sorted,
// deduplicated union of their emissions. It is the shared harness for
// every parallel query path (1-dimensional here, 2-dimensional in package
// twod).
func RunSubqueries(exec *Executor, subs []func(emit func(dual.OID)) error) ([]dual.OID, error) {
	//mobidxlint:allow ctxflow -- compat facade: ctx-less entry point for callers with no deadline; cancellation users call RunSubqueriesCtx
	return RunSubqueriesCtx(context.Background(), exec, subs)
}

// RunSubqueriesCtx is RunSubqueries with the executor's cancellation path:
// the context stops the fan-out between subqueries (see RunCtx). On
// cancellation the partial buckets are discarded and the context's error
// is returned — a cancelled query has no answer, not a truncated one.
func RunSubqueriesCtx(ctx context.Context, exec *Executor, subs []func(emit func(dual.OID)) error) ([]dual.OID, error) {
	buckets := make([][]dual.OID, len(subs))
	tasks := make([]func() error, len(subs))
	for i, sq := range subs {
		i, sq := i, sq
		tasks[i] = func() error {
			return sq(func(id dual.OID) { buckets[i] = append(buckets[i], id) })
		}
	}
	if err := exec.RunCtx(ctx, tasks); err != nil {
		return nil, err
	}
	return MergeOIDs(buckets), nil
}
