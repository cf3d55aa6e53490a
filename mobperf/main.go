// Command mobperf is the repository's benchmark. It drives the durable
// sharded cluster that ships — shard.OpenCluster over a shard.DirEnv, with
// real files and real fsync — through one of the workloads of
// BENCHMARK.json, checks every answer it can against a brute-force oracle,
// and prints every metric by name with its unit. The last line of its
// output is one JSON object: correct, attempted, failed and metrics; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from a traced run.
//
// Build and run it from the repository root with mobperf/run.sh:
//
//	bash mobperf/run.sh --workload query-wide --seed 1 --seconds 40 --trace 0
//
// --profile 1 writes a CPU and an allocation profile of the timed phase to
// the output directory; the spans of a traced run are written there too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mobperf:", err)
		return 2
	}
	res, err := runBench(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "mobperf:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("mobperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, profile int
	fs.StringVar(&cfg.workload, "workload", "", "workload: query-wide or update-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 25, "length of the timed part of the run")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.IntVar(&profile, "profile", 0, "1: write CPU and allocation profiles of the timed phase")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.out, "out", "", "output directory (default <root>/.bench_build/mobperf)")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, for the report")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := specs[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 || trace < 0 || trace > 1 || profile < 0 || profile > 1 {
		return cfg, errors.New("need --seconds >= 1 and --trace and --profile 0 or 1")
	}
	cfg.trace, cfg.profile = trace == 1, profile == 1
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, ".bench_build", "mobperf")
	}
	cfg.n, cfg.setups, cfg.autoCkpt, cfg.pairsPerSec = objects, setups, autoCheckpointBytes, pairsPerSecond
	return cfg, nil
}

// runBench makes one run and prints its report.
func runBench(ctx context.Context, cfg config, stdout io.Writer) (result, error) {
	sp := specs[cfg.workload]
	b := &bench{cfg: cfg, sp: sp, exec: core.NewExecutor(0)}
	if cfg.trace {
		b.tr = newTracer()
	}
	// A writer that commits every pair before the deadline stops; the
	// report calls it saturated.
	maxPairs := cfg.pairsPerSec * cfg.seconds
	in, err := genInputs(cfg.seed, cfg.n, sp.mix, readListLen, standingQueries, maxPairs, oracleSample)
	if err != nil {
		return result{}, fmt.Errorf("inputs: %w", err)
	}
	b.in = in
	b.cur = append([]dual.Motion(nil), in.initial...)
	b.ccfg = shard.ClusterConfig{Terrain: in.terrain, C: obsIndexes, AutoCheckpointBytes: cfg.autoCkpt}
	if b.tr != nil {
		b.ccfg.WrapStore = func(id int) func(pager.Store) pager.Store {
			return func(s pager.Store) pager.Store {
				w, err := wrapStore(s, b.tr, id, walKinds)
				if err != nil {
					b.wrapErr = err
					return s
				}
				return w
			}
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, err
	}
	b.dir = filepath.Join(cfg.out, fmt.Sprintf("data-%s-%d", cfg.workload, os.Getpid()))
	dataRoot := b.dir // b.dir moves to the kept set-up's subdirectory
	defer func() {
		// The run pays for its own clean-up: the next run starts on a
		// filesystem with no deletions pending.
		os.RemoveAll(dataRoot)
		syscall.Sync()
	}()

	heap0 := liveHeap()
	setupS, err := b.setupAll(ctx)
	if err != nil {
		return result{}, err
	}
	if err := b.subscribe(); err != nil {
		return result{}, err
	}
	b.pass(ctx, b.passSet()[:warmupQueries])
	syscall.Sync() // settle the set-up's writes before timing

	total := time.Duration(cfg.seconds) * time.Second
	readDur := total
	if !sp.writer {
		readDur = time.Duration(float64(total) * readShare)
	}
	var stopProfile func() error
	if cfg.profile {
		if stopProfile, err = startProfile(cfg.out, cfg.workload); err != nil {
			return result{}, err
		}
	}
	var offPh, mainPh *phase
	if b.tr != nil {
		// The first third runs untraced in the same process; the traced
		// query p50 minus its p50 is the tracing overhead.
		offPh = b.timed(ctx, readDur/3, sp.readers, sp.writer)
		b.tr.on.Store(true)
		mainPh = b.timed(ctx, readDur-readDur/3, sp.readers, sp.writer)
	} else {
		mainPh = b.timed(ctx, readDur, sp.readers, sp.writer)
	}
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			return result{}, err
		}
	}

	var ps passStats
	writePh := mainPh
	if !sp.writer {
		if ps, err = b.passes(ctx); err != nil {
			return result{}, err
		}
		// The query workloads' update metrics come from a write probe
		// after the read phase with update-mixed's clients: the writer and
		// one reader of each instant's small queries. With no reader the
		// commits' latency is almost all fsync wait and swings with the
		// disk's load; alongside the reader it holds steady from run to
		// run. A wide-query reader leaves too few instants in the probe
		// for a steady notify_p50_ms.
		// The probe starts settled, as the read phase did: the garbage of
		// the passes' standalone index collected, their checkpoint's
		// writes on disk.
		runtime.GC()
		syscall.Sync()
		writePh = b.timed(ctx, total-readDur, 1, true)
	}
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	if err := b.restartCheck(ctx, b.endChecks(ctx)); err != nil {
		return result{}, fmt.Errorf("restart check: %w", err)
	}
	if sp.writer {
		// update-mixed counts pages on the recovered cluster, whose WAL
		// page table holds what the last checkpoint had not folded in.
		if b.tr != nil {
			b.tr.on.Store(true)
		}
		if ps, err = b.passes(ctx); err != nil {
			return result{}, err
		}
		if b.tr != nil {
			b.tr.on.Store(false)
		}
	}
	heap, disk, err := b.finish(heap0)
	if err != nil {
		return result{}, err
	}

	e2e := e2eMetrics(e2eInput{main: mainPh, write: writePh, passReads: ps.pages, passN: ps.n,
		heapBytes: heap, diskBytes: disk, n: cfg.n, setupS: setupS})
	var layers []metric
	var notes []string
	if b.tr != nil {
		spans := b.tr.snapshot()
		amb := resolveParents(spans)
		layers = layerMetrics(traceInput{spans: spans, main: phaseWindow(b.tr, mainPh),
			passBefore: ps.before, pass: ps.after, write: phaseWindow(b.tr, writePh), passN: ps.n,
			mainPh: mainPh, offPh: offPh, core: ps.core})
		walReads := 0
		for _, s := range spans {
			if s.kind == kWALRead && ps.after.has(s) {
				walReads++
			}
		}
		notes = append(notes, fmt.Sprintf("%d spans; %d store spans inside requests of two clients left unattributed", len(spans), amb))
		if sp.writer {
			notes = append(notes, "traced clients ran concurrently")
		} else {
			notes = append(notes, "traced readers of the read phase were serialized so every store span has one owner; the write probe's reader ran alongside the writer")
		}
		// After the checkpoint every index read must reach the files: the
		// traced WAL-level count and the untraced pages_per_query count the
		// same reads.
		if int64(walReads) != ps.pages {
			b.fail("trace check: %d WAL reads but %d base-store reads in the counting pass", walReads, ps.pages)
		}
		notes = append(notes, fmt.Sprintf("pages check: %d WAL reads, %d base-store reads over the counting pass", walReads, ps.pages))
		path := filepath.Join(cfg.out, cfg.workload+".spans.tsv.gz")
		if err := writeSpans(path, spans); err != nil {
			return result{}, err
		}
		notes = append(notes, "spans written to "+path)
	}
	b.errMu.Lock()
	for _, e := range b.errs {
		notes = append(notes, "FAILED: "+e)
	}
	for _, left := range b.saturated {
		notes = append(notes, fmt.Sprintf("SATURATED: the writer applied all %d generated pairs with %v of its phase left; "+
			"its update metrics cover only the time it ran (raise pairsPerSecond for a longer stream)", in.pairs(), left.Round(time.Millisecond)))
	}
	b.errMu.Unlock()
	notes = append(notes, fmt.Sprintf("failed_op_frac = %g", float64(b.failed.Load())/float64(b.attempted.Load())))

	res := result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]resultMetric{}}
	res.Correct = res.Failed == 0
	reported := e2e
	if b.tr != nil {
		reported = layers
	}
	for _, m := range reported {
		res.Metrics[m.name] = resultMetric{Value: m.value, Unit: m.unit}
	}
	return res, printReport(stdout, envBlock(cfg, sp), e2e, layers, notes, res)
}
