package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/shard"
	"mobidx/internal/subscribe"
	"mobidx/internal/workload"
)

// The shared set-up of every workload (see BENCHMARK.json for the why).
const (
	objects         = 100_000 // N, the paper's smallest population
	bands           = 4       // cluster bands
	obsIndexes      = 4       // Dual-B+ c
	standingQueries = 100     // drained at every instant boundary
	readListLen     = 4000
	oracleSample    = 50 // read-list answers checked against brute force
	warmupQueries   = 20 // untimed queries before the timed phase
	setups          = 5  // set-ups per run; setup_s is their median

	// autoCheckpointBytes is the per-shard WAL size that triggers a
	// checkpoint: update-mixed checkpoints every shard several times a run.
	autoCheckpointBytes = 32 << 20

	// pairsPerSecond sizes the update stream: pairs generated per second
	// of --seconds. The writer commits 200-250 a second on a 2-vCPU VM,
	// so a write path up to about twelve times faster still shows in full.
	pairsPerSecond = 3000

	// readShare is the part of a query workload's run spent reading; the
	// rest is its write probe.
	readShare = 0.5
)

// spec is one workload: who sends what during the timed phase.
type spec struct {
	mix     workload.QueryMix
	readers int
	writer  bool // a writer runs alongside the readers in the timed phase
	// passN is the size of the serial counting pass: as many queries as
	// take about a second, so pages_per_query averages over a wide sample.
	passN int
}

var specs = map[string]spec{
	"query-wide":   {mix: workload.QueryMix{Name: "wide", YQMax: 600, TW: 60}, readers: 2, passN: 100},
	"update-mixed": {mix: workload.SmallQueries(), readers: 1, writer: true, passN: queriesPerInstant},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	profile  bool
	n        int
	setups   int
	autoCkpt int64
	// pairsPerSec sizes the update stream, in pairs per second of the run.
	pairsPerSec int
	out         string // output directory: data, spans, profiles
	root        string
	commit      string
}

// phase holds what one timed phase measured.
type phase struct {
	start, end time.Time
	queryUs    []float64
	updateUs   []float64
	notifyMs   []float64
	queries    int64
	pairs      int64
	writerWall time.Duration
	deltas     int64
	ticks      int
	rt         [2]runtimeSample
}

func (p *phase) secs() float64 { return p.end.Sub(p.start).Seconds() }

// bench is one run.
type bench struct {
	cfg  config
	sp   spec
	in   *inputs
	tr   *tracer // nil when untraced
	exec *core.Executor
	ccfg shard.ClusterConfig
	dir  string
	env  *benchEnv
	c    *shard.Cluster

	cur      []dual.Motion // what the cluster holds: the initial motions plus every acknowledged pair
	subs     []subscribe.SubID
	clock    float64 // the subscription clock
	nextInst int     // the instant the writer is in
	nextPair int     // the next pair of that instant; 0: its notification is due
	curInst  atomic.Int64
	writing  atomic.Bool // the writer runs in the current timed phase

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string
	saturated []time.Duration // per write phase that ran out of pairs: the time it had left
	wrapErr   error
}

// fail counts a failed or wrong operation and keeps the first messages.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.errMu.Lock()
	if len(b.errs) < 10 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
	b.errMu.Unlock()
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// setup opens a fresh cluster in dir, bulk-loads the initial motions and
// checkpoints, so queries read index pages from the files. It returns the
// time all three took.
func (b *bench) setup(ctx context.Context, dir string) (*shard.Cluster, *benchEnv, time.Duration, error) {
	t0 := time.Now()
	env, err := newBenchEnv(dir, b.tr)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := shard.OpenCluster(env, b.ccfg, bands)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := c.BulkLoad(ctx, b.in.initial); err != nil {
		return nil, nil, 0, errors.Join(err, c.Close())
	}
	if err := c.Checkpoint(); err != nil {
		return nil, nil, 0, errors.Join(err, c.Close())
	}
	return c, env, time.Since(t0), nil
}

// setupAll sets up cfg.setups times, keeps the last cluster and returns the
// set-up times in seconds. The other set-ups' files stay until the run
// ends: deleting them here would have the filesystem discard their blocks
// during the timed phase.
func (b *bench) setupAll(ctx context.Context) ([]float64, error) {
	var secs []float64
	for i := 0; i < b.cfg.setups; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))
		c, env, d, err := b.setup(ctx, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if b.wrapErr != nil {
			return nil, errors.Join(b.wrapErr, c.Close())
		}
		secs = append(secs, d.Seconds())
		if i < b.cfg.setups-1 {
			if err := c.Close(); err != nil {
				return nil, err
			}
			continue
		}
		b.c, b.env, b.dir = c, env, dir
	}
	if n := b.env.shards(); n != bands {
		return nil, fmt.Errorf("setup: %d shard media opened, want %d", n, bands)
	}
	for i := 0; i < bands; i++ {
		if id := b.c.Router().Shard(i).ID(); id != i {
			return nil, fmt.Errorf("setup: band %d served by shard %d", i, id)
		}
	}
	return secs, nil
}

// subscribe registers the standing queries and drains their initial
// answers, so the first instant's drain carries only changes.
func (b *bench) subscribe() error {
	rt := b.c.Router()
	for _, q := range b.in.standing {
		id, err := rt.Subscribe(q.Y1, q.Y2, q.T2-q.T1)
		if err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		if _, err := rt.DrainSubs(id); err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		b.subs = append(b.subs, id)
	}
	return nil
}

// query runs one timed Cluster.Query and checks it against want when want
// is non-nil. While tracing, it also replays the query layer by layer.
func (b *bench) query(ctx context.Context, q dual.MORQuery, want []dual.OID) (float64, bool) {
	b.attempted.Add(1)
	var req int32
	if b.tr.active() {
		req = b.tr.newReq()
	}
	sp := b.tr.begin(kClusterQuery, anyMedia, req, 0)
	t0 := time.Now()
	got, err := b.c.Query(ctx, q)
	us := usSince(t0)
	sp.end()
	if err != nil {
		b.fail("query %+v: %v", q, err)
		return 0, false
	}
	if want != nil && !sameOIDs(got, want) {
		b.fail("query %+v: %d answers, brute force has %d", q, len(got), len(want))
	}
	if req != 0 {
		// With the writer running the replay sees a later state, so its
		// answer is compared only when nothing writes.
		if !b.writing.Load() {
			want = got
		} else {
			want = nil
		}
		if err := b.replayQuery(ctx, q, want, req); err != nil {
			b.fail("replayed query %+v: %v", q, err)
		}
	}
	return us, true
}

// replayQuery runs q again through the router's public pieces, one span
// each: the partitioner's fan-out, every overlapping shard in turn, and the
// merge. A non-nil want must equal the merged answer.
func (b *bench) replayQuery(ctx context.Context, q dual.MORQuery, want []dual.OID, req int32) error {
	rt := b.c.Router()
	rq := b.tr.begin(kRouterQuery, anyMedia, req, 0)
	pl := b.tr.begin(kRouterPlan, anyMedia, req, rq.id())
	targets := rt.Partitioner().Overlapping(q)
	pl.end()
	buckets := make([][]dual.OID, len(targets))
	for i, band := range targets {
		sq := b.tr.begin(kShardQuery, band, req, rq.id())
		res, err := rt.Shard(band).Query(ctx, q)
		sq.end()
		if err != nil {
			return err
		}
		buckets[i] = res
	}
	mg := b.tr.begin(kRouterMerge, anyMedia, req, rq.id())
	merged := core.MergeOIDs(buckets)
	mg.end()
	rq.s.n = int64(len(targets))
	rq.end()
	if want != nil && !sameOIDs(merged, want) {
		return fmt.Errorf("replay has %d answers, Cluster.Query %d", len(merged), len(want))
	}
	return nil
}

// update applies one pair as one durable commit: Cluster.Apply, or while
// tracing the router's apply path replayed from its public pieces.
func (b *bench) update(ctx context.Context, p pair) (float64, error) {
	ops := []shard.Op{{Insert: false, M: p.del}, {Insert: true, M: p.ins}}
	b.attempted.Add(1)
	t0 := time.Now()
	var err error
	if b.tr.active() {
		err = b.replayApply(ctx, ops)
	} else {
		err = b.c.Apply(ctx, ops)
	}
	us := usSince(t0)
	if err != nil {
		b.fail("apply pair for object %d: %v", p.ins.OID, err)
		return 0, err
	}
	b.cur[p.ins.OID] = p.ins
	return us, nil
}

// replayApply does what Router.Apply does, from its public pieces: route
// each op to the bands Partitioner.Assign names and apply every shard's
// batch with Shard.Apply on a GOMAXPROCS-bounded executor, one span per
// shard.
func (b *bench) replayApply(ctx context.Context, ops []shard.Op) error {
	rt := b.c.Router()
	req := b.tr.newReq()
	ra := b.tr.begin(kRouterApply, anyMedia, req, 0)
	part := rt.Partitioner()
	per := make(map[int][]shard.Op)
	for _, op := range ops {
		for _, band := range part.Assign(op.M) {
			per[band] = append(per[band], op)
		}
	}
	targets := make([]int, 0, len(per))
	for band := range per {
		targets = append(targets, band)
	}
	sort.Ints(targets)
	tasks := make([]func() error, 0, len(targets))
	for _, band := range targets {
		s, batch := rt.Shard(band), per[band]
		tasks = append(tasks, func() error {
			sp := b.tr.begin(kShardApply, band, req, ra.id())
			defer sp.end()
			return s.Apply(ctx, batch)
		})
	}
	err := b.exec.RunCtx(ctx, tasks)
	ra.s.n = int64(len(targets))
	ra.end()
	return err
}

// notify is the writer's instant boundary: advance every shard's
// subscription clock to t and drain every standing query.
func (b *bench) notify(t float64, ph *phase) error {
	rt := b.c.Router()
	t0 := time.Now()
	sa := b.tr.begin(kSubsAdvance, anyMedia, 0, 0)
	err := rt.AdvanceSubs(t)
	sa.end()
	if err != nil {
		return fmt.Errorf("advance subscriptions to %v: %w", t, err)
	}
	sd := b.tr.begin(kSubsDrain, anyMedia, 0, 0)
	n := 0
	for _, id := range b.subs {
		ds, err := rt.DrainSubs(id)
		if err != nil {
			return fmt.Errorf("drain subscription %d: %w", id, err)
		}
		n += len(ds)
	}
	sd.s.n = int64(n)
	sd.end()
	ph.notifyMs = append(ph.notifyMs, usSince(t0)/1e3)
	ph.deltas += int64(n)
	ph.ticks++
	b.clock = t
	return nil
}

// writeLoop applies the update stream from where the last write phase
// stopped until the deadline: at each instant boundary the notification,
// then the instant's pairs.
func (b *bench) writeLoop(ctx context.Context, deadline time.Time, ph *phase) {
	t0 := time.Now()
	defer func() { ph.writerWall = time.Since(t0) }()
	for b.nextInst < len(b.in.instants) && time.Now().Before(deadline) {
		inst := b.in.instants[b.nextInst]
		if b.nextPair == 0 {
			b.attempted.Add(1)
			if err := b.notify(inst.t, ph); err != nil {
				b.fail("%v", err)
				return
			}
			b.curInst.Store(int64(b.nextInst))
		}
		for ; b.nextPair < len(inst.pairs); b.nextPair++ {
			if !time.Now().Before(deadline) {
				return
			}
			us, err := b.update(ctx, inst.pairs[b.nextPair])
			if err != nil {
				return
			}
			ph.updateUs = append(ph.updateUs, us)
			ph.pairs++
		}
		b.nextInst, b.nextPair = b.nextInst+1, 0
	}
	if left := time.Until(deadline); left > 0 {
		// Not a failure: the writer outran the generated stream. Its
		// metrics cover the time it ran; the report says so.
		b.errMu.Lock()
		b.saturated = append(b.saturated, left)
		b.errMu.Unlock()
	}
}

// readLoop is one closed-loop reader: it sends its next query when the last
// one is answered, until the deadline. serial, when non-nil, is held
// across each request so the traced run's store spans have one owner.
func (b *bench) readLoop(ctx context.Context, deadline time.Time, pick func() (dual.MORQuery, []dual.OID), serial *sync.Mutex) []float64 {
	var lat []float64
	for time.Now().Before(deadline) {
		q, want := pick()
		if serial != nil {
			serial.Lock()
		}
		us, ok := b.query(ctx, q, want)
		if serial != nil {
			serial.Unlock()
		}
		if ok {
			lat = append(lat, us)
		}
	}
	return lat
}

// timed runs readers and, if writer is set, the writer for d. With the
// writer, the readers send the current instant's queries, unchecked, as
// answers change under them; without, the read list.
func (b *bench) timed(ctx context.Context, d time.Duration, readers int, writer bool) *phase {
	ph := &phase{}
	var serial *sync.Mutex
	if b.tr != nil && !writer {
		// Two readers on the same shard make store spans ambiguous; with
		// the writer present they stay concurrent, since the overlap of
		// reads with log syncs is what update-mixed measures. The traced
		// run's untraced segment is serialized too, so the difference of
		// the two is the tracing overhead alone.
		serial = &sync.Mutex{}
	}
	var next atomic.Int64
	pick := func() (dual.MORQuery, []dual.OID) {
		i := int(next.Add(1) - 1)
		if writer {
			qs := b.in.instants[b.curInst.Load()].queries
			return qs[i%len(qs)], nil
		}
		i %= len(b.in.reads)
		return b.in.reads[i], b.in.expected[i]
	}
	ph.rt[0] = readRuntime()
	rs0 := b.c.Router().Stats()
	b.writing.Store(writer)
	defer b.writing.Store(false)
	ph.start = time.Now()
	deadline := ph.start.Add(d)
	var wg sync.WaitGroup
	lats := make([][]float64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[r] = b.readLoop(ctx, deadline, pick, serial)
		}()
	}
	if writer {
		b.writeLoop(ctx, deadline, ph)
	}
	wg.Wait()
	ph.end = time.Now()
	ph.rt[1] = readRuntime()
	// The cluster runs with no retry policy, so a retry, a failed shard
	// call or a partial answer is an operation that went wrong.
	if rs := b.c.Router().Stats(); rs.Retries != rs0.Retries || rs.FailedShards != rs0.FailedShards || rs.Partial != rs0.Partial {
		b.fail("router reported %d retries, %d failed shard calls and %d partial answers",
			rs.Retries-rs0.Retries, rs.FailedShards-rs0.FailedShards, rs.Partial-rs0.Partial)
	}
	for _, l := range lats {
		ph.queryUs = append(ph.queryUs, l...)
	}
	ph.queries = int64(len(ph.queryUs))
	return ph
}

// passSet is the fixed query set of the counting pass: the start of the
// read list, or for update-mixed the queries of the last instant applied.
func (b *bench) passSet() []dual.MORQuery {
	if b.sp.writer {
		return b.in.instants[b.curInst.Load()].queries[:b.sp.passN]
	}
	return b.in.reads[:b.sp.passN]
}

// pass runs the counting pass: the fixed query set, one query at a time,
// each checked against brute force over the current motions. It returns
// the page reads that reached the base stores' files.
func (b *bench) pass(ctx context.Context, qs []dual.MORQuery) int64 {
	before := b.env.baseReads()
	for _, q := range qs {
		want := bruteForce(b.cur, q)
		b.attempted.Add(1)
		sp := b.tr.begin(kPassQuery, anyMedia, 0, 0)
		got, err := b.c.Query(ctx, q)
		sp.end()
		switch {
		case err != nil:
			b.fail("pass query %+v: %v", q, err)
		case !sameOIDs(got, want):
			b.fail("pass query %+v: %d answers, brute force has %d", q, len(got), len(want))
		}
	}
	return b.env.baseReads() - before
}

// coreStats are the Dual-B+ layer's numbers from the standalone replay.
type coreStats struct {
	subqueries, candidates, answers int
	planUs                          []float64
}

// coreReplay answers qs one at a time on a standalone core.DualBPlus
// bulk-loaded with the motions the cluster holds: the shard does not
// expose its index, so this is where the core layer is measured. Every
// answer must equal brute force.
func (b *bench) coreReplay(qs []dual.MORQuery) (coreStats, error) {
	var cs coreStats
	ix, err := core.NewDualBPlus(pager.NewMemStore(pager.DefaultPageSize),
		core.DualBPlusConfig{Terrain: b.in.terrain, C: obsIndexes})
	if err != nil {
		return cs, err
	}
	if err := ix.BulkLoad(b.cur); err != nil {
		return cs, err
	}
	exec := core.NewExecutor(1)
	for _, q := range qs {
		t0 := time.Now()
		subs := ix.Subqueries(q)
		cs.planUs = append(cs.planUs, usSince(t0))
		cs.subqueries += len(subs)
		got, err := ix.QueryParallel(exec, q)
		if err != nil {
			return cs, err
		}
		cs.candidates += ix.LastQueryCandidates()
		cs.answers += len(got)
		if want := bruteForce(b.cur, q); !sameOIDs(got, want) {
			b.fail("core replay %+v: %d answers, brute force has %d", q, len(got), len(want))
		}
	}
	return cs, nil
}

// endChecks compares sampled queries and every standing query's members
// with brute force over the final motions, and returns the sample.
func (b *bench) endChecks(ctx context.Context) []dual.MORQuery {
	qs := b.in.reads[:oracleSample]
	if b.nextInst > 0 || b.nextPair > 0 {
		qs = b.in.instants[b.curInst.Load()].queries[:oracleSample]
	}
	for _, q := range qs {
		b.attempted.Add(1)
		got, err := b.c.Query(ctx, q)
		if err != nil {
			b.fail("end check %+v: %v", q, err)
		} else if want := bruteForce(b.cur, q); !sameOIDs(got, want) {
			b.fail("end check %+v: %d answers, brute force has %d", q, len(got), len(want))
		}
	}
	rt := b.c.Router()
	for i, id := range b.subs {
		sq := b.in.standing[i]
		q := dual.MORQuery{Y1: sq.Y1, Y2: sq.Y2, T1: b.clock, T2: b.clock + sq.T2 - sq.T1}
		b.attempted.Add(1)
		got, err := rt.SubMembers(id)
		if err != nil {
			b.fail("members of standing query %d: %v", id, err)
		} else if want := bruteForce(b.cur, q); !sameOIDs(got, want) {
			b.fail("standing query %d: %d members, brute force has %d", id, len(got), len(want))
		}
	}
	return qs
}

// restartCheck abandons the cluster without Close, as a crash would, and
// recovers it from its files with OpenCluster; the recovered cluster serves
// the rest of the run. The sampled queries must answer as brute force does,
// and every shard must hold exactly the motions the acknowledged updates
// leave.
func (b *bench) restartCheck(ctx context.Context, qs []dual.MORQuery) error {
	b.c = nil
	env, err := newBenchEnv(b.dir, b.tr)
	if err != nil {
		return err
	}
	c, err := shard.OpenCluster(env, b.ccfg, bands)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	b.c, b.env = c, env
	for _, q := range qs {
		b.attempted.Add(1)
		got, err := c.Query(ctx, q)
		if err != nil {
			b.fail("recovered query %+v: %v", q, err)
		} else if want := bruteForce(b.cur, q); !sameOIDs(got, want) {
			b.fail("recovered query %+v: %d answers, brute force has %d", q, len(got), len(want))
		}
	}
	rt := c.Router()
	for band, want := range bandContents(rt.Partitioner(), b.cur) {
		b.attempted.Add(1)
		got, err := rt.Shard(band).Motions()
		if err != nil {
			b.fail("recovered band %d motions: %v", band, err)
			continue
		}
		if len(got) != len(want) {
			b.fail("recovered band %d holds %d motions, want %d", band, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				b.fail("recovered band %d motion %d is %+v, want %+v", band, i, got[i], want[i])
				break
			}
		}
	}
	return nil
}

// passStats is what the counting passes measured.
type passStats struct {
	n                int
	fileReads, pages int64  // base-store reads before and after the checkpoint
	before, after    window // the two passes on the tracer's clock
	core             coreStats
}

// passes runs the counting pass twice over the same queries: first as the
// cluster stands, where reads of pages still in the WAL's page table never
// reach the files, then after a checkpoint, where every index page read
// does. The second gives pages_per_query, the paper's page reads per query.
func (b *bench) passes(ctx context.Context) (passStats, error) {
	qs := b.passSet()
	ps := passStats{n: len(qs)}
	ps.before.lo = b.tr.nowOr0()
	ps.fileReads = b.pass(ctx, qs)
	ps.before.hi = b.tr.nowOr0()
	if err := b.c.Checkpoint(); err != nil {
		return ps, err
	}
	ps.after.lo = b.tr.nowOr0()
	ps.pages = b.pass(ctx, qs)
	ps.after.hi = b.tr.nowOr0()
	if b.tr != nil {
		on := b.tr.on.Swap(false)
		defer b.tr.on.Store(on)
		var err error
		if ps.core, err = b.coreReplay(qs); err != nil {
			return ps, fmt.Errorf("core replay: %w", err)
		}
	}
	return ps, nil
}

// finish checkpoints the cluster at rest, measures its live heap over the
// baseline heap0, closes it and returns the bytes left on disk.
func (b *bench) finish(heap0 float64) (heap float64, disk int64, err error) {
	if err := b.c.Checkpoint(); err != nil {
		return 0, 0, err
	}
	heap = liveHeap() - heap0
	if err := b.c.Close(); err != nil {
		return 0, 0, err
	}
	disk, err = dirBytes(b.dir)
	return heap, disk, err
}

// runtimeSample is the Go runtime counters a phase is measured with.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU, idleCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCPU: v(1), totalCPU: v(2), idleCPU: v(3)}
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// startProfile starts a CPU profile into the output directory; the stop
// function also writes the allocation profile.
func startProfile(out, name string) (stop func() error, err error) {
	cpu, err := os.Create(filepath.Join(out, name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return nil, errors.Join(err, cpu.Close())
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(out, name+".allocs.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return errors.Join(err, f.Close())
		}
		return f.Close()
	}, nil
}
