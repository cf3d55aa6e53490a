// Throughput serving mode: where RunScenario measures the paper's I/O
// metric one operation at a time, RunThroughput measures wall-clock query
// serving — G goroutines answering MOR queries against a Dual-B+ index
// while a writer applies motion updates, under the repository's serving
// concurrency model (index-level readers-writer latch: queries share an
// RLock, updates take the exclusive Lock). Reported are queries/second and
// p50/p99 latency, the operational complement to the per-query I/O counts.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// ThroughputConfig tunes a serving run.
type ThroughputConfig struct {
	N       int   // mobile objects (0 → 20000)
	Workers int   // query-serving goroutines (0 → GOMAXPROCS)
	Queries int   // total queries to serve (0 → 4000)
	Seed    int64 // scenario seed (0 → 1999, the paper seed)
	// UpdatesPerSec paces the writer in real time: motion updates arrive
	// at a fixed rate — as in the paper's model, where objects report
	// their motion changes independently of query load — each a
	// delete+insert pair under the exclusive latch. Zero selects 10
	// pairs/sec; negative disables the writer.
	UpdatesPerSec float64
	Mix           workload.QueryMix // zero value → the small-query mix
	// IOLatency simulates disk latency: every buffer-pool miss (a page
	// read or write reaching the base store) stalls this long. Zero means
	// no stall — pure in-memory serving. The stall models the paper's
	// cost metric: queries are I/O-bound, and concurrent serving wins by
	// overlapping independent queries' stalls, not by burning more CPU.
	IOLatency time.Duration
	// BufferPages sizes the serving cache (0 → 128). Small enough that
	// leaf reads miss, large enough to hold the hot root path.
	BufferPages int
	// Rebuild, when set, performs one full bulk reindex mid-run: once half
	// the queries have been served, a maintenance goroutine takes the
	// exclusive latch and replaces the index with BulkLoad over the current
	// motion set — the paper's periodic reconstruction, executed with the
	// bottom-up builders instead of n Inserts. The stall it causes is the
	// rebuild's serving cost, visible in p99 and RebuildMs.
	Rebuild bool
}

// slowStore injects the simulated disk latency under the buffer pool.
// Only reads stall: a buffer miss is a random page fetch (a seek), while
// writes are absorbed at sequential speed by a write-ahead log — the
// storage layer this repository actually provides (internal/pager's
// WALStore). The delay is switched on only after the bootstrap build so
// index construction runs at memory speed.
type slowStore struct {
	pager.Store
	delay   time.Duration
	enabled atomic.Bool
}

func (s *slowStore) Read(id pager.PageID) (*pager.Page, error) {
	if s.delay > 0 && s.enabled.Load() {
		time.Sleep(s.delay)
	}
	return s.Store.Read(id)
}

// ThroughputResult reports one serving run. Query and update throughput
// are both first-class: UPS is the sustained update-pair rate actually
// achieved over the run (the writer is paced, so it saturates at
// cfg.UpdatesPerSec unless the exclusive latch starves it), and the
// update percentiles time each pair's exclusive section including the
// latch wait — the serving stall an update inflicts.
type ThroughputResult struct {
	Workers  int           `json:"workers"`
	Queries  int           `json:"queries"`
	Updates  int           `json:"updates"`
	Elapsed  time.Duration `json:"-"`
	QPS      float64       `json:"qps"`
	UPS      float64       `json:"updates_per_sec"`
	P50      time.Duration `json:"-"`
	P99      time.Duration `json:"-"`
	P50us    float64       `json:"p50_us"`
	P99us    float64       `json:"p99_us"`
	UpdP50   time.Duration `json:"-"`
	UpdP99   time.Duration `json:"-"`
	UpdP50us float64       `json:"upd_p50_us"`
	UpdP99us float64       `json:"upd_p99_us"`
	// Rebuilds counts mid-run bulk reindexes; RebuildMs is the exclusive
	// latch hold time of the last one (0 when Rebuild is off).
	Rebuilds  int     `json:"rebuilds"`
	RebuildMs float64 `json:"rebuild_ms"`
}

func (c *ThroughputConfig) fill() {
	if c.N == 0 {
		c.N = 20000
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queries == 0 {
		c.Queries = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1999
	}
	if c.UpdatesPerSec == 0 {
		c.UpdatesPerSec = 10
	}
	if c.Mix.PerSlot == 0 {
		c.Mix = workload.SmallQueries()
	}
	if c.BufferPages == 0 {
		c.BufferPages = 128
	}
}

// RunThroughput builds a Dual-B+ index (c=4, compact codec, 256 buffered
// pages — a serving cache, not the paper's 4-page root path), bootstraps
// the §5 scenario at N objects, then serves cfg.Queries queries from
// cfg.Workers goroutines. Interleaved with the queries, a single writer
// applies pre-generated update pairs (delete+insert) under the exclusive
// latch — one pair per UpdateEvery queries served.
func RunThroughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	cfg.fill()

	disk := &slowStore{Store: pager.NewMemStore(pager.DefaultPageSize), delay: cfg.IOLatency}
	store := pager.NewBuffered(disk, cfg.BufferPages)
	tr := workload.DefaultParams(cfg.N).Terrain
	ix, err := core.NewDualBPlus(store, core.DualBPlusConfig{Terrain: tr, C: 4, Codec: bptree.Compact})
	if err != nil {
		return nil, err
	}
	p := workload.DefaultParams(cfg.N)
	p.Seed = cfg.Seed
	sim, err := workload.NewSimulator(p)
	if err != nil {
		return nil, err
	}
	apply := func(op workload.Op) error {
		if op.Insert {
			return ix.Insert(op.Motion)
		}
		return ix.Delete(op.Motion)
	}
	if err := sim.Bootstrap(apply); err != nil {
		return nil, err
	}

	// Snapshot the live motion set before pre-generation ticks mutate the
	// simulator's state: the rebuild path needs the motions the index
	// actually holds, kept current by the writer as updates apply.
	live := make(map[dual.OID]dual.Motion, cfg.N)
	for _, m := range sim.Motions() {
		live[m.OID] = m
	}

	// Pre-generate the serving workload so measurement excludes generation
	// cost: a pool of queries at the bootstrap instant, and a stream of
	// update ops from simulator ticks (collected, not yet applied — the
	// writer goroutine applies them in order during serving, so the index
	// always reflects a prefix of the simulated timeline).
	queries := sim.Queries(cfg.Mix)
	for len(queries) < 2048 {
		queries = append(queries, sim.Queries(cfg.Mix)...)
	}
	var updates []workload.Op
	if cfg.UpdatesPerSec > 0 {
		// Enough pairs to outlast any plausible run length.
		for len(updates) < 2*cfg.Queries {
			if err := sim.Tick(func(op workload.Op) error {
				updates = append(updates, op)
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}

	disk.enabled.Store(true) // the build is done; misses now pay disk latency

	var (
		mu        sync.RWMutex // serving latch: queries RLock, updates Lock
		next      atomic.Int64 // next query ticket
		served    atomic.Int64
		applied   atomic.Int64
		errOnce   sync.Once
		runErr    error
		latencies = make([][]time.Duration, cfg.Workers)
		updLat    []time.Duration // single writer: no lock needed
	)
	fail := func(err error) {
		if err != nil {
			errOnce.Do(func() { runErr = err })
		}
	}

	// The last query worker to finish records the instant and closes
	// queriesDone: the writer applies every pair due by then and stops.
	var (
		running     atomic.Int64
		queriesDone = make(chan struct{})
		doneAt      time.Time
	)
	running.Store(int64(cfg.Workers))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if running.Add(-1) == 0 {
					doneAt = time.Now()
					close(queriesDone)
				}
			}()
			lat := make([]time.Duration, 0, cfg.Queries/cfg.Workers+1)
			for {
				ticket := next.Add(1) - 1
				if ticket >= int64(cfg.Queries) {
					break
				}
				q := queries[ticket%int64(len(queries))]
				t0 := time.Now()
				mu.RLock()
				err := ix.Query(q, func(dual.OID) {})
				mu.RUnlock()
				lat = append(lat, time.Since(t0))
				if err != nil {
					fail(fmt.Errorf("query %d: %w", ticket, err))
					break
				}
				served.Add(1)
			}
			latencies[w] = lat
		}(w)
	}
	if len(updates) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// warm pre-reads an update's search path under the shared
			// latch: a point query at the motion's own coordinates walks
			// the same root-to-leaf pages the delete/insert will, pulling
			// them into the pool so the exclusive section that follows
			// stalls as little as possible. This is the classic
			// prefetch-then-latch move — without it, every page miss
			// inside the exclusive section stops the whole server.
			warm := func(m dual.Motion) {
				q := dual.MORQuery{Y1: m.Y0, Y2: m.Y0, T1: m.T0, T2: m.T0}
				//mobidxlint:allow errdrop -- best-effort cache warming; a failed prefetch only costs latency
				_ = ix.Query(q, func(dual.OID) {})
			}
			interval := time.Duration(float64(time.Second) / cfg.UpdatesPerSec)
			// due waits for a pair's arrival time or for the query
			// workers to finish, whichever comes first. Once they have
			// finished, only a pair due by the instant they finished is
			// still applied — however late the writer got scheduled.
			due := func(at time.Time) bool {
				timer := time.NewTimer(time.Until(at))
				defer timer.Stop()
				select {
				case <-timer.C:
				case <-queriesDone:
				}
				select {
				case <-queriesDone:
					return !at.After(doneAt)
				default:
					return true
				}
			}
			for i := 0; i+1 < len(updates); i += 2 {
				if !due(start.Add(time.Duration(i/2) * interval)) {
					return
				}
				mu.RLock()
				warm(updates[i].Motion)
				warm(updates[i+1].Motion)
				mu.RUnlock()
				t0 := time.Now()
				mu.Lock()
				err := apply(updates[i])
				if err == nil {
					err = apply(updates[i+1])
				}
				for _, op := range updates[i : i+2] {
					if op.Insert {
						live[op.Motion.OID] = op.Motion
					}
				}
				mu.Unlock()
				updLat = append(updLat, time.Since(t0))
				if err != nil {
					fail(fmt.Errorf("update %d: %w", i/2, err))
					return
				}
				applied.Add(1)
			}
		}()
	}
	var (
		rebuilds  int
		rebuildMs float64
	)
	if cfg.Rebuild {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Wait for the halfway mark, then reindex under the exclusive
			// latch: snapshot the live motions (guarded by mu, like the
			// index itself) and swap in a bulk-built replacement.
			for next.Load() < int64(cfg.Queries)/2 {
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			ms := make([]dual.Motion, 0, len(live))
			for _, m := range live {
				ms = append(ms, m)
			}
			t0 := time.Now()
			err := ix.BulkLoad(ms)
			rebuildMs = float64(time.Since(t0).Microseconds()) / 1e3
			mu.Unlock()
			if err != nil {
				fail(fmt.Errorf("rebuild: %w", err))
				return
			}
			rebuilds++
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(updLat, func(i, j int) bool { return updLat[i] < updLat[j] })
	pctOf := func(l []time.Duration, p float64) time.Duration {
		if len(l) == 0 {
			return 0
		}
		return l[int(p*float64(len(l)-1))]
	}
	res := &ThroughputResult{
		Workers:   cfg.Workers,
		Queries:   int(served.Load()),
		Updates:   int(applied.Load()),
		Elapsed:   elapsed,
		QPS:       float64(served.Load()) / elapsed.Seconds(),
		UPS:       float64(applied.Load()) / elapsed.Seconds(),
		P50:       pctOf(all, 0.50),
		P99:       pctOf(all, 0.99),
		UpdP50:    pctOf(updLat, 0.50),
		UpdP99:    pctOf(updLat, 0.99),
		Rebuilds:  rebuilds,
		RebuildMs: rebuildMs,
	}
	res.P50us = float64(res.P50.Nanoseconds()) / 1e3
	res.P99us = float64(res.P99.Nanoseconds()) / 1e3
	res.UpdP50us = float64(res.UpdP50.Nanoseconds()) / 1e3
	res.UpdP99us = float64(res.UpdP99.Nanoseconds()) / 1e3
	return res, nil
}

// CheckParallelDifferential builds a static Dual-B+ index (Wide codec, so
// the comparison is exact) and asserts QueryParallel returns identical
// slices at every given worker count, and that those slices match the
// brute-force oracle. It is the executable form of the determinism claim
// in the -throughput report.
func CheckParallelDifferential(n int, seed int64, workerCounts []int) error {
	p := workload.DefaultParams(n)
	p.Seed = seed
	store := pager.NewBuffered(pager.NewMemStore(pager.DefaultPageSize), 256)
	ix, err := core.NewDualBPlus(store, core.DualBPlusConfig{Terrain: p.Terrain, C: 4, Codec: bptree.Wide})
	if err != nil {
		return err
	}
	sim, err := workload.NewSimulator(p)
	if err != nil {
		return err
	}
	apply := func(op workload.Op) error {
		if op.Insert {
			return ix.Insert(op.Motion)
		}
		return ix.Delete(op.Motion)
	}
	if err := sim.Bootstrap(apply); err != nil {
		return err
	}
	for _, mix := range []workload.QueryMix{workload.SmallQueries(), workload.LargeQueries()} {
		for _, q := range sim.Queries(mix)[:50] {
			var ref []dual.OID
			for i, wkr := range workerCounts {
				got, err := ix.QueryParallel(core.NewExecutor(wkr), q)
				if err != nil {
					return fmt.Errorf("workers=%d: %w", wkr, err)
				}
				if i == 0 {
					ref = got
					want := sim.BruteForce(q)
					sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
					if len(got) != len(want) {
						return fmt.Errorf("mix %s: parallel answer has %d OIDs, oracle %d",
							mix.Name, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							return fmt.Errorf("mix %s: parallel answer diverges from oracle at %d", mix.Name, k)
						}
					}
					continue
				}
				if len(got) != len(ref) {
					return fmt.Errorf("workers=%d: %d OIDs, reference %d", wkr, len(got), len(ref))
				}
				for k := range ref {
					if got[k] != ref[k] {
						return fmt.Errorf("workers=%d: result diverges from single-worker reference", wkr)
					}
				}
			}
		}
	}
	return nil
}
