package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names what a span timed. Request-level spans are opened by the
// benchmark around its calls into the cluster; store-level spans come from
// the spies around the stores and logs the cluster runs on.
type spanKind uint8

const (
	kClusterQuery spanKind = iota + 1 // Cluster.Query in the timed loop
	kPassQuery                        // Cluster.Query in the serial counting pass
	kRouterQuery                      // the replayed router path of one query
	kRouterPlan                       // Partitioner.Overlapping
	kRouterMerge                      // core.MergeOIDs
	kRouterApply                      // the replayed router path of one update pair
	kShardQuery                       // Shard.Query
	kShardApply                       // Shard.Apply
	kSubsAdvance                      // Router.AdvanceSubs
	kSubsDrain                        // Router.DrainSubs of every standing query
	kWALRead
	kWALWrite
	kWALAlloc
	kWALFree
	kFileRead
	kFileWrite
	kFileAlloc
	kFileFree
	kFileSync
	kLogAppend
	kLogSync
	kLogTruncate
	numKinds
)

var kindNames = [numKinds]string{
	kClusterQuery: "cluster.query", kPassQuery: "pass.query",
	kRouterQuery: "router.query", kRouterPlan: "router.plan", kRouterMerge: "router.merge",
	kRouterApply: "router.apply", kShardQuery: "shard.query", kShardApply: "shard.apply",
	kSubsAdvance: "subscribe.advance", kSubsDrain: "subscribe.drain",
	kWALRead: "wal.read", kWALWrite: "wal.write", kWALAlloc: "wal.alloc", kWALFree: "wal.free",
	kFileRead: "file.read", kFileWrite: "file.write", kFileAlloc: "file.alloc",
	kFileFree: "file.free", kFileSync: "file.sync",
	kLogAppend: "log.append", kLogSync: "log.sync", kLogTruncate: "log.truncate",
}

func (k spanKind) String() string { return kindNames[k] }

// layer is the module a span's time belongs to. A span's self time leaves
// out only the child spans of other layers, so a router span keeps its own
// planning and merging but not the shard calls it made.
func (k spanKind) layer() string {
	switch {
	case k == kClusterQuery || k == kPassQuery:
		return "cluster"
	case k <= kRouterApply:
		return "router"
	case k <= kShardApply:
		return "shard"
	case k <= kSubsDrain:
		return "subscribe"
	case k <= kWALFree:
		return "wal"
	case k <= kFileSync:
		return "file"
	}
	return "log"
}

// storeLevel reports spans recorded by the spies. The store interfaces
// carry no request id, so these get their parent by time containment.
func (k spanKind) storeLevel() bool { return k >= kWALRead }

// anyMedia marks a span not tied to one shard's media.
const anyMedia = -1

// span is one timed interval. Times are nanoseconds since the tracer
// started; parent and req are 0 when unknown.
type span struct {
	id, parent, req int32
	kind            spanKind
	media           int16
	start, end      int64
	n               int64 // bytes moved, or a count the span reports
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory while recording is on; they are analysed
// and written out when the run ends.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int32
	reqs  atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// active reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) newReq() int32 { return t.reqs.Add(1) }

// openSpan is a request-level span whose id is known before it ends, so
// its children can name it as their parent.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span; a nil tracer or a tracer that is off returns a span
// whose end does nothing.
func (t *tracer) begin(k spanKind, media int, req, parent int32) openSpan {
	if !t.active() {
		return openSpan{}
	}
	return openSpan{t: t, s: span{id: t.ids.Add(1), parent: parent, req: req, kind: k,
		media: int16(media), start: t.now()}}
}

func (o openSpan) id() int32 { return o.s.id }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.end = o.t.now()
	o.t.add(o.s)
}

// record adds a store-level span that started at start and ends now.
func (t *tracer) record(k spanKind, media int, start, n int64) {
	t.add(span{id: t.ids.Add(1), kind: k, media: int16(media), start: start, end: t.now(), n: n})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans sorted by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// resolveParents gives every store-level span the innermost request-level
// span of matching media that contains it in time. A span contained in
// spans of two different requests is ambiguous: it keeps parent 0 and is
// counted. spans must be sorted by start.
func resolveParents(spans []span) (ambiguous int) {
	var active []int // indices of request-level spans that may still contain later spans
	for i := range spans {
		s := &spans[i]
		if !s.kind.storeLevel() {
			if s.kind == kClusterQuery || s.kind == kPassQuery || s.kind == kShardQuery || s.kind == kShardApply {
				active = append(active, i)
			}
			continue
		}
		kept := active[:0]
		best := -1
		var req int32
		amb := false
		for _, ai := range active {
			a := spans[ai]
			if a.end < s.start {
				continue // ended before s and every later span starts
			}
			kept = append(kept, ai)
			if a.end < s.end || (a.media != anyMedia && a.media != s.media) {
				continue
			}
			if best >= 0 && a.req != req {
				amb = true
			}
			if best < 0 || a.start >= spans[best].start {
				best, req = ai, a.req
			}
		}
		active = kept
		if amb {
			ambiguous++
			continue
		}
		if best >= 0 {
			s.parent, s.req = spans[best].id, req
		}
	}
	return ambiguous
}

// selfTime is a span's duration minus the part of it that the given child
// intervals cover; overlapping children count once and the parts of a
// child outside the span do not count.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range iv {
		if c[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c[0], c[1]
		} else if c[1] > curHi {
			curHi = c[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return end - start - covered
}

// selfTimes returns the self time of every request-level span, keyed by
// id: its duration minus the cover of its children from other layers.
func selfTimes(spans []span) map[int32]int64 {
	byID := make(map[int32]span)
	for _, s := range spans {
		if !s.kind.storeLevel() {
			byID[s.id] = s
		}
	}
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if p, ok := byID[s.parent]; ok && p.kind.layer() != s.kind.layer() {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[int32]int64, len(byID))
	for id, s := range byID {
		out[id] = selfTime(s.start, s.end, children[id])
	}
	return out
}

// writeSpans dumps spans as gzip-compressed tab-separated lines: id,
// parent, request, name, media, start and end in ns, and n.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\treq\tname\tmedia\tstart_ns\tend_ns\tn")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
			s.id, s.parent, s.req, s.kind, s.media, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nowOr0 is now on a tracer, 0 on nil.
func (t *tracer) nowOr0() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}
