package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{n: 1000, limit: 99, want: 99, ok: true},
		{n: 999, limit: 99, want: 95, ok: true},
		{n: 200, limit: 99, want: 95, ok: true},
		{n: 199, limit: 99, want: 90, ok: true},
		{n: 20, limit: 99, want: 50, ok: true},
		{n: 19, limit: 99, want: 50, ok: false},
		{n: 100000, limit: 95, want: 95, ok: true},
	} {
		got, ok := tailPercentile(c.n, c.limit)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.limit, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, c.n-rank(c.n, got))
		}
	}
	d := newDist([]float64{5, 1, 4, 2, 3})
	if d.p50() != 3 || percentile(d, 100) != 5 || percentile(d, 1) != 1 {
		t.Errorf("nearest-rank percentiles of %v wrong", d)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {30, 35}}, 85},
		{"overlapping count once", [][2]int64{{10, 20}, {15, 30}}, 80},
		{"clipped to the span", [][2]int64{{-5, 2}, {90, 120}}, 88},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 50},
		{"covering", [][2]int64{{-1, 101}}, 0},
		{"outside", [][2]int64{{200, 300}}, 100},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesLeaveSameLayerChildren(t *testing.T) {
	spans := []span{
		{id: 1, kind: kRouterQuery, start: 0, end: 100},
		{id: 2, parent: 1, kind: kRouterPlan, start: 0, end: 10},
		{id: 3, parent: 1, kind: kShardQuery, start: 10, end: 70},
		{id: 4, parent: 1, kind: kRouterMerge, start: 70, end: 100},
		{id: 5, parent: 3, kind: kWALRead, start: 20, end: 30},
	}
	self := selfTimes(spans)
	if self[1] != 40 {
		t.Errorf("router self time %d, want 40 (plan and merge are router work)", self[1])
	}
	if self[3] != 50 {
		t.Errorf("shard self time %d, want 50", self[3])
	}
}

func TestResolveParents(t *testing.T) {
	spans := []span{
		{id: 1, req: 1, kind: kPassQuery, media: anyMedia, start: 0, end: 100},
		{id: 2, kind: kWALRead, media: 2, start: 10, end: 20},
		{id: 3, req: 2, kind: kShardQuery, media: 1, start: 200, end: 300},
		{id: 4, kind: kWALRead, media: 2, start: 210, end: 220},
		{id: 5, req: 3, kind: kShardApply, media: 1, start: 250, end: 400},
		{id: 6, kind: kWALRead, media: 1, start: 260, end: 270},
		{id: 7, kind: kLogSync, media: 1, start: 310, end: 320},
		{id: 8, kind: kWALRead, media: 1, start: 500, end: 510},
	}
	amb := resolveParents(spans)
	want := map[int32]int32{2: 1, 4: 0, 6: 0, 7: 5, 8: 0}
	for _, s := range spans {
		if p, ok := want[s.id]; ok && s.parent != p {
			t.Errorf("span %d (%s) parent %d, want %d", s.id, s.kind, s.parent, p)
		}
	}
	if amb != 1 {
		t.Errorf("%d ambiguous spans, want 1 (span 6 lies in requests 2 and 3)", amb)
	}
	if spans[6].req != 3 {
		t.Errorf("log sync attributed to request %d, want 3", spans[6].req)
	}
}

// TestSyncInApply: a log sync counts towards log.sync_share when it lies
// inside an apply on its media, even where a concurrent reader's query,
// which spans every media, leaves its parent ambiguous.
func TestSyncInApply(t *testing.T) {
	spans := []span{
		{id: 1, req: 1, kind: kClusterQuery, media: anyMedia, start: 0, end: 1000},
		{id: 2, req: 2, kind: kShardApply, media: 1, start: 100, end: 400},
		{id: 3, req: 2, kind: kShardApply, media: 2, start: 120, end: 380},
		{id: 4, kind: kLogSync, media: 2, start: 150, end: 170}, // in query and apply 3
		{id: 5, kind: kLogSync, media: 1, start: 300, end: 350}, // in query and apply 2
		{id: 6, kind: kLogSync, media: 3, start: 310, end: 330}, // in the query only
		{id: 7, kind: kLogSync, media: 1, start: 390, end: 410}, // runs past its apply
		{id: 8, req: 3, kind: kShardApply, media: 1, start: 500, end: 900},
		{id: 9, kind: kLogSync, media: 1, start: 600, end: 640},  // in apply 8
		{id: 10, kind: kLogSync, media: 1, start: 950, end: 960}, // after every apply
		{id: 11, req: 4, kind: kShardApply, media: 1, start: 2000, end: 2100},
		{id: 12, kind: kLogSync, media: 1, start: 2010, end: 2020}, // outside the window
	}
	if got := syncInApply(spans, window{lo: 0, hi: 1500}); got != 20+50+40 {
		t.Errorf("sync time inside applies %d, want %d", got, 20+50+40)
	}
	resolved := append([]span(nil), spans...)
	resolveParents(resolved)
	if resolved[4].parent != 0 {
		t.Errorf("sync 5 resolved to parent %d; the case needs it ambiguous", resolved[4].parent)
	}
}

func TestStratifyKeepsTheQueriesAndSpreadsPrefixes(t *testing.T) {
	var qs []dual.MORQuery
	for i := 0; i < 1000; i++ {
		w := float64((i * 37) % 1000)
		qs = append(qs, dual.MORQuery{Y1: 0, Y2: w, T1: 0, T2: 0})
	}
	got := stratify(qs)
	if len(got) != len(qs) {
		t.Fatalf("%d queries out of %d", len(got), len(qs))
	}
	seen := make(map[dual.MORQuery]bool)
	for _, q := range got {
		seen[q] = true
	}
	if len(seen) != len(qs) {
		t.Fatalf("stratify lost or repeated queries: %d distinct of %d", len(seen), len(qs))
	}
	for _, k := range []int{64, 100, 300} {
		sum := 0.0
		for _, q := range got[:k] {
			sum += q.Y2 - q.Y1
		}
		if mean := sum / float64(k); mean < 470 || mean > 530 {
			t.Errorf("prefix of %d has mean extent %v, the whole list 499.5", k, mean)
		}
	}
}

// TestPairOps checks that update pairs keep the simulator's op order,
// delete before insert: replaying the pairs over the initial motions, each
// pair deletes exactly the motion its object has at that point.
func TestPairOps(t *testing.T) {
	p := workload.DefaultParams(500)
	sim, err := workload.NewSimulator(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Bootstrap(func(workload.Op) error { return nil }); err != nil {
		t.Fatal(err)
	}
	cur := append([]dual.Motion(nil), sim.Motions()...)
	for tick := 0; tick < 20; tick++ {
		var ops []workload.Op
		if err := sim.Tick(func(op workload.Op) error { ops = append(ops, op); return nil }); err != nil {
			t.Fatal(err)
		}
		pairs, err := pairOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		if 2*len(pairs) != len(ops) {
			t.Fatalf("%d pairs from %d ops", len(pairs), len(ops))
		}
		for i, pr := range pairs {
			if ops[2*i].Motion != pr.del || ops[2*i+1].Motion != pr.ins {
				t.Fatalf("pair %d out of simulator order", i)
			}
			if cur[pr.del.OID] != pr.del {
				t.Fatalf("pair %d deletes %+v, object holds %+v", i, pr.del, cur[pr.del.OID])
			}
			cur[pr.ins.OID] = pr.ins
		}
	}
	for i, m := range sim.Motions() {
		if cur[i] != m {
			t.Fatalf("object %d ends at %+v, simulator at %+v", i, cur[i], m)
		}
	}
	m := dual.Motion{OID: 7, V: 1}
	for name, bad := range map[string][]workload.Op{
		"insert first": {{Insert: true, Motion: m}, {Insert: false, Motion: m}},
		"two objects":  {{Insert: false, Motion: m}, {Insert: true, Motion: dual.Motion{OID: 8, V: 1}}},
		"odd op count": {{Insert: false, Motion: m}},
		"two deletes":  {{Insert: false, Motion: m}, {Insert: false, Motion: m}},
	} {
		if _, err := pairOps(bad); err == nil {
			t.Errorf("%s: pairOps accepted %v", name, bad)
		}
	}
}

func TestSpiesForwardExactlyTheOptionalInterfaces(t *testing.T) {
	fs, err := pager.NewFileStore(filepath.Join(t.TempDir(), "p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	wal, err := pager.OpenWALStore(pager.NewMemStore(0), pager.NewMemLog(), pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	tr := newTracer()
	for _, c := range []struct {
		name  string
		inner pager.Store
		k     spyKinds
		want  int
	}{
		{"FileStore", fs, fileKinds, optSyncer | optAdopter | optCloser},
		{"WALStore", wal, walKinds, optBatcher | optCloser},
	} {
		if got := optionalSet(c.inner); got != c.want {
			t.Errorf("%s implements %05b, spy written for %05b", c.name, got, c.want)
		}
		spy, err := wrapStore(c.inner, tr, 0, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := optionalSet(spy), optionalSet(c.inner); got != want {
			t.Errorf("%s spy implements %05b, the store %05b", c.name, got, want)
		}
	}
	if _, err := wrapStore(pager.NewMemStore(0), tr, 0, walKinds); err == nil {
		t.Error("wrapStore accepted a store whose interface set it has no spy for")
	}
	var _ pager.LogFile = (*logSpy)(nil)
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a small population, untraced and
// traced: each run must pass its own checks and report exactly the metrics
// BENCHMARK.json lists, and the traced WAL reads per query must equal the
// untraced pages per query on the query workloads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	wantE2E, wantLayer := units(bj.EndToEnd), units(bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for name := range specs {
		specNames = append(specNames, name)
	}
	sort.Strings(names)
	sort.Strings(specNames)
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, specNames)
	}
	out := t.TempDir()
	for _, name := range specNames {
		got := map[bool]result{}
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			cfg := config{workload: name, seed: 3, seconds: 1, trace: traced, n: 3000, setups: 2,
				autoCkpt: 1 << 20, pairsPerSec: pairsPerSecond, out: out, root: "..", commit: "test"}
			res, err := runBench(context.Background(), cfg, &buf)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
				t.Fatalf("%s traced=%v: last line %q is not the result object", name, traced, lines[len(lines)-1])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: %+v\n%s", name, traced, res, buf.String())
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if rm, ok := res.Metrics[m]; !ok || rm.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, rm, unit)
				}
			}
			got[traced] = res
		}
		if specs[name].writer {
			continue
		}
		pages, walReads := got[false].Metrics["pages_per_query"].Value, got[true].Metrics["wal.reads_per_query"].Value
		if pages != walReads || pages == 0 {
			t.Errorf("%s: untraced pages_per_query %v, traced wal.reads_per_query %v", name, pages, walReads)
		}
	}
}

// TestSaturatedWriter: a writer that commits the whole update stream
// before its deadline is reported as saturated, not as a failed run.
func TestSaturatedWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var buf bytes.Buffer
	cfg := config{workload: "update-mixed", seed: 4, seconds: 1, n: 3000, setups: 1,
		autoCkpt: 1 << 20, pairsPerSec: 10, out: t.TempDir(), root: "..", commit: "test"}
	res, err := runBench(context.Background(), cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("saturated run failed: %+v\n%s", res, buf.String())
	}
	if !strings.Contains(buf.String(), "SATURATED") {
		t.Errorf("report does not say the writer was saturated:\n%s", buf.String())
	}
}
