package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"mobidx/internal/pager"
)

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
func itoa(n int) string     { return strconv.Itoa(n) }

// e2eInput is what the end-to-end metrics are computed from.
type e2eInput struct {
	main, write *phase // the timed phase, and the phase the writer ran in
	passReads   int64
	passN       int
	heapBytes   float64
	diskBytes   int64
	n           int
	setupS      []float64
}

// e2eMetrics are the numbers a user of the cluster sees, measured with
// tracing off.
func e2eMetrics(in e2eInput) []metric {
	q, u := newDist(in.main.queryUs), newDist(in.write.updateUs)
	qTail, qp, _ := q.tail(99)
	uTail, up, _ := u.tail(99)
	rt0, rt1 := in.main.rt[0], in.main.rt[1]
	ops := float64(in.main.queries + in.main.pairs)
	return []metric{
		{name: "query_p50_us", unit: "us", value: q.p50(), note: itoa(len(q)) + " samples"},
		{name: "query_p99_us", unit: "us", value: qTail, note: tailNote(qp, len(q))},
		{name: "query_qps", unit: "1/s", value: float64(in.main.queries) / in.main.secs()},
		{name: "update_p50_us", unit: "us", value: u.p50(), note: itoa(len(u)) + " samples"},
		{name: "update_p99_us", unit: "us", value: uTail, note: tailNote(up, len(u))},
		{name: "updates_per_sec", unit: "1/s", value: float64(in.write.pairs) / in.write.writerWall.Seconds()},
		{name: "notify_p50_ms", unit: "ms", value: newDist(in.write.notifyMs).p50(),
			note: itoa(in.write.ticks) + " instants, " + strconv.FormatInt(in.write.deltas, 10) + " deltas"},
		{name: "pages_per_query", unit: "pages", value: float64(in.passReads) / float64(in.passN),
			note: "base-store reads over the " + itoa(in.passN) + "-query counting pass"},
		{name: "alloc_bytes_per_op", unit: "B", value: ratio(rt1.allocBytes-rt0.allocBytes, ops)},
		{name: "heap_mb", unit: "MiB", value: in.heapBytes / (1 << 20)},
		{name: "disk_bytes_per_object", unit: "B", value: float64(in.diskBytes) / float64(in.n),
			note: "page files + logs after a final checkpoint"},
		{name: "setup_s", unit: "s", value: newDist(in.setupS).p50(), note: fmt.Sprintf("median of %v", in.setupS)},
	}
}

// envBlock describes where and on what a run measured.
func envBlock(cfg config, sp spec) map[string]any {
	writers := 0
	if sp.writer {
		writers = 1
	}
	return map[string]any{
		"commit":                cfg.commit,
		"source_sha256":         sourceHash(cfg.root),
		"go":                    runtime.Version(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"nproc":                 runtime.NumCPU(),
		"cpu":                   cpuModel(),
		"data_fs":               fsType(cfg.out),
		"workload":              cfg.workload,
		"seed":                  cfg.seed,
		"seconds":               cfg.seconds,
		"trace":                 cfg.trace,
		"n":                     cfg.n,
		"bands":                 bands,
		"c":                     obsIndexes,
		"page_size":             pager.DefaultPageSize,
		"auto_checkpoint_bytes": cfg.autoCkpt,
		"readers":               sp.readers,
		"writers":               writers,
		"setups":                cfg.setups,
		"standing_queries":      standingQueries,
	}
}

// sourceHash fingerprints the repository's Go sources, so a report made
// outside a git checkout still names the code it measured.
func sourceHash(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType returns the type of the filesystem holding dir, from the longest
// mount point in /proc/mounts that contains it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the environment block, every metric with its unit,
// and the result line last.
func printReport(w io.Writer, env map[string]any, e2e, layers []metric, notes []string, res result) error {
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", envJSON)
	for _, group := range []struct {
		tag string
		ms  []metric
	}{{"end-to-end", e2e}, {"per-layer", layers}} {
		for _, m := range group.ms {
			line := fmt.Sprintf("%s %s = %s %s", group.tag, m.name, ftoa(m.value), m.unit)
			if m.note != "" {
				line += "  (" + m.note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, n := range notes {
		fmt.Fprintln(w, "note", n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
