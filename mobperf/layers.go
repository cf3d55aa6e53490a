package main

import (
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// window is a time range on the tracer's clock.
type window struct{ lo, hi int64 }

func (w window) has(s span) bool { return s.start >= w.lo && s.end <= w.hi }

func phaseWindow(tr *tracer, ph *phase) window {
	return window{lo: int64(ph.start.Sub(tr.epoch)), hi: int64(ph.end.Sub(tr.epoch))}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// traceInput is what the per-layer analysis reads besides the spans.
type traceInput struct {
	spans            []span
	main, write      window // traced timed phase, phase with the writer
	passBefore, pass window // counting pass before and after its checkpoint
	passN            int
	mainPh, offPh    *phase
	core             coreStats
}

// layerMetrics derives the per-layer metrics from a traced run. Each is
// listed in BENCHMARK.json with the end-to-end metric it should move.
func layerMetrics(ti traceInput) []metric {
	spans := ti.spans
	self := selfTimes(spans)
	byID := make(map[int32]spanKind) // request-level spans, the only parents
	for _, s := range spans {
		if !s.kind.storeLevel() {
			byID[s.id] = s.kind
		}
	}
	var (
		targets, replicas, routerApplies, ticks float64
		mergeUs, routerSelfUs, shardQueryUs     []float64
		shardApplyUs, fileReadUs, syncUs        []float64
		advanceMs, drainMs                      []float64
		deltas                                  float64
		walReadsPass, walReadUsPass, fileReads  float64
		walWrites, walAllocs, walFrees          float64
		fileWriteBytes, appendBytes, syncs      float64
		applyNs                                 int64
		shardQueries                            []span
		syncsByMedia                            = make(map[int16][]span)
		checkpointMs                            []float64
	)
	for _, s := range spans {
		inMain, inPass, inWrite := ti.main.has(s), ti.pass.has(s), ti.write.has(s)
		switch s.kind {
		case kRouterQuery:
			if inMain {
				targets += float64(s.n)
				routerSelfUs = append(routerSelfUs, us(self[s.id]))
			}
		case kRouterMerge:
			if inMain {
				mergeUs = append(mergeUs, us(s.dur()))
			}
		case kShardQuery:
			if inMain {
				shardQueryUs = append(shardQueryUs, us(s.dur()))
				shardQueries = append(shardQueries, s)
			}
		case kRouterApply:
			if inWrite {
				routerApplies++
				replicas += float64(s.n)
			}
		case kShardApply:
			if inWrite {
				shardApplyUs = append(shardApplyUs, us(s.dur()))
				applyNs += s.dur()
			}
		case kSubsAdvance:
			if inWrite {
				ticks++
				advanceMs = append(advanceMs, us(s.dur())/1e3)
			}
		case kSubsDrain:
			if inWrite {
				drainMs = append(drainMs, us(s.dur())/1e3)
				deltas += float64(s.n)
			}
		case kWALRead:
			if inPass {
				walReadsPass++
				if byID[s.parent] == kPassQuery {
					walReadUsPass += us(s.dur())
				}
			}
		case kWALWrite, kWALAlloc, kWALFree:
			if inWrite {
				switch s.kind {
				case kWALWrite:
					walWrites++
				case kWALAlloc:
					walAllocs++
				default:
					walFrees++
				}
			}
		case kFileRead:
			if ti.passBefore.has(s) {
				fileReads++
			}
			if inMain {
				fileReadUs = append(fileReadUs, us(s.dur()))
			}
		case kFileWrite:
			if inWrite {
				fileWriteBytes += float64(s.n)
			}
		case kLogAppend:
			if inWrite {
				appendBytes += float64(s.n)
			}
		case kLogSync:
			if inMain {
				syncsByMedia[s.media] = append(syncsByMedia[s.media], s)
			}
			if inWrite {
				syncs++
				syncUs = append(syncUs, us(s.dur()))
			}
		}
	}
	checkpointMs = checkpoints(spans, ti.write)
	syncInApplyNs := syncInApply(spans, ti.write)

	overlapped := 0
	for _, q := range shardQueries {
		ss := syncsByMedia[q.media]
		// Syncs of one log never overlap each other, so the last one to
		// start before q ends is the only one that can still be running.
		i := sort.Search(len(ss), func(i int) bool { return ss[i].start >= q.end })
		if i > 0 && ss[i-1].end > q.start {
			overlapped++
		}
	}
	pairs := routerApplies
	passN := float64(ti.passN)
	syncTail, syncP, _ := newDist(syncUs).tail(99)
	rt0, rt1 := ti.mainPh.rt[0], ti.mainPh.rt[1]
	busy := (rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)
	return []metric{
		{name: "router.shards_per_query", unit: "count", value: ratio(targets, float64(len(routerSelfUs)))},
		{name: "router.merge_us", unit: "us", value: newDist(mergeUs).p50()},
		{name: "router.self_us", unit: "us", value: newDist(routerSelfUs).p50(),
			note: "replayed router span minus its shard calls"},
		{name: "shard.query_us", unit: "us", value: newDist(shardQueryUs).p50()},
		{name: "shard.apply_us", unit: "us", value: newDist(shardApplyUs).p50()},
		{name: "shard.replicas_per_update", unit: "count", value: ratio(replicas, pairs)},
		{name: "shard.query_sync_overlap_frac", unit: "fraction", value: ratio(float64(overlapped), float64(len(shardQueries)))},
		{name: "wal.reads_per_query", unit: "pages", value: ratio(walReadsPass, passN)},
		{name: "wal.read_us_per_query", unit: "us", value: ratio(walReadUsPass, passN)},
		{name: "wal.writes_per_update", unit: "pages", value: ratio(walWrites, pairs)},
		{name: "wal.allocs_per_update", unit: "pages", value: ratio(walAllocs, pairs)},
		{name: "wal.frees_per_update", unit: "pages", value: ratio(walFrees, pairs)},
		{name: "file.reads_per_query", unit: "pages", value: ratio(fileReads, passN)},
		{name: "file.read_us_p50", unit: "us", value: newDist(fileReadUs).p50()},
		{name: "file.write_bytes_per_update", unit: "B", value: ratio(fileWriteBytes, pairs)},
		{name: "file.checkpoints", unit: "count", value: float64(len(checkpointMs))},
		{name: "file.checkpoint_ms", unit: "ms", value: newDist(checkpointMs).p50()},
		{name: "log.append_bytes_per_update", unit: "B", value: ratio(appendBytes, pairs)},
		{name: "log.syncs_per_update", unit: "count", value: ratio(syncs, pairs)},
		{name: "log.sync_us_p50", unit: "us", value: newDist(syncUs).p50()},
		{name: "log.sync_us_p99", unit: "us", value: syncTail, note: tailNote(syncP, len(syncUs))},
		{name: "log.sync_share", unit: "fraction", value: ratio(float64(syncInApplyNs), float64(applyNs))},
		{name: "pager.bytes_written_per_update", unit: "B", value: ratio(appendBytes+fileWriteBytes, pairs)},
		{name: "core.subqueries_per_query", unit: "count", value: ratio(float64(ti.core.subqueries), passN)},
		{name: "core.plan_us", unit: "us", value: newDist(ti.core.planUs).p50()},
		{name: "core.candidates_per_answer", unit: "ratio", value: ratio(float64(ti.core.candidates), float64(ti.core.answers))},
		{name: "subscribe.advance_ms_per_tick", unit: "ms", value: newDist(advanceMs).p50()},
		{name: "subscribe.drain_ms_per_tick", unit: "ms", value: newDist(drainMs).p50()},
		{name: "subscribe.deltas_per_tick", unit: "count", value: ratio(deltas, ticks)},
		{name: "runtime.gc_cpu_frac", unit: "fraction", value: ratio(rt1.gcCPU-rt0.gcCPU, busy)},
		{name: "trace.overhead_us", unit: "us",
			value: newDist(ti.mainPh.queryUs).p50() - newDist(ti.offPh.queryUs).p50(),
			note:  "traced minus untraced query p50, same process"},
	}
}

// checkpoints finds every WAL checkpoint in w and returns their durations
// in ms. A checkpoint is the only thing that writes a shard's base store
// while it serves: it starts at the first base write, truncates the log and
// ends when the log sync after the truncate returns.
func checkpoints(spans []span, w window) []float64 {
	type state struct {
		open, truncated bool
		start           int64
	}
	st := make(map[int16]*state)
	var out []float64
	for _, s := range spans {
		if !w.has(s) {
			continue
		}
		c := st[s.media]
		if c == nil {
			c = &state{}
			st[s.media] = c
		}
		switch s.kind {
		case kFileWrite:
			if !c.open {
				c.open, c.truncated, c.start = true, false, s.start
			}
		case kLogTruncate:
			c.truncated = c.open
		case kLogSync:
			if c.open && c.truncated {
				out = append(out, float64(s.end-c.start)/float64(time.Millisecond))
				c.open = false
			}
		}
	}
	return out
}

// syncInApply sums the durations of the log syncs in w that lie inside a
// Shard.Apply on the same media. It matches by media and time, not by the
// parents resolveParents gives: a concurrent reader's Cluster.Query spans
// every media, so a sync inside one of them is ambiguous there, although
// only the writer's commits sync. Applies on one media never overlap (there
// is one writer), so the last to start before a sync is the only one that
// can contain it. spans must be sorted by start.
func syncInApply(spans []span, w window) int64 {
	applies := make(map[int16][]span)
	for _, s := range spans {
		if s.kind == kShardApply && w.has(s) {
			applies[s.media] = append(applies[s.media], s)
		}
	}
	var ns int64
	for _, s := range spans {
		if s.kind != kLogSync || !w.has(s) {
			continue
		}
		as := applies[s.media]
		i := sort.Search(len(as), func(i int) bool { return as[i].start > s.start })
		if i > 0 && as[i-1].end >= s.end {
			ns += s.dur()
		}
	}
	return ns
}

// tailNote says which percentile a tail metric reports and on how many
// samples.
func tailNote(p float64, n int) string {
	if n-rank(n, p) < minBeyond {
		return "too few samples for any percentile with 10 beyond"
	}
	return "p" + ftoa(p) + " of " + itoa(n) + " samples"
}
