package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
)

func TestExecutorWorkerDefaults(t *testing.T) {
	if got := NewExecutor(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewExecutor(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewExecutor(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewExecutor(-3).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewExecutor(5).Workers(); got != 5 {
		t.Fatalf("NewExecutor(5).Workers() = %d, want 5", got)
	}
}

func TestExecutorRunsAllTasks(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2, 7, 16} {
		var ran atomic.Int64
		tasks := make([]func() error, 50)
		for i := range tasks {
			tasks[i] = func() error { ran.Add(1); return nil }
		}
		if err := NewExecutor(workers).Run(tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: ran %d of 50 tasks", workers, ran.Load())
		}
	}
}

func TestExecutorEmptyAndNil(t *testing.T) {
	e := NewExecutor(4)
	if err := e.Run(nil); err != nil {
		t.Fatalf("Run(nil): %v", err)
	}
	if err := e.Run([]func() error{}); err != nil {
		t.Fatalf("Run(empty): %v", err)
	}
}

// TestExecutorBoundedConcurrency verifies the semaphore: the number of
// simultaneously running tasks never exceeds the worker count.
func TestExecutorBoundedConcurrency(t *testing.T) {
	leakcheck.Check(t)
	const workers = 3
	var inFlight, peak atomic.Int64
	tasks := make([]func() error, 40)
	for i := range tasks {
		tasks[i] = func() error {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return nil
		}
	}
	if err := NewExecutor(workers).Run(tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight %d exceeds worker bound %d", p, workers)
	}
}

// TestExecutorErrorPropagation verifies the first error is reported, and
// that Run still waits for (and runs) every task rather than abandoning
// goroutines — the property the leak check enforces.
func TestExecutorErrorPropagation(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		tasks := make([]func() error, 20)
		for i := range tasks {
			i := i
			tasks[i] = func() error {
				ran.Add(1)
				if i == 3 {
					return boom
				}
				return nil
			}
		}
		err := NewExecutor(workers).Run(tasks)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// Both modes drain every task so partial buckets never escape.
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d tasks, want all 20", workers, ran.Load())
		}
	}
}

// mergeOIDsRef is the original merge — concatenate, sort.Slice, dedup —
// kept as the reference MergeOIDs is checked against.
func mergeOIDsRef(buckets [][]dual.OID) []dual.OID {
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	if n == 0 {
		return nil
	}
	out := make([]dual.OID, 0, n)
	for _, b := range buckets {
		out = append(out, b...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// checkMerge compares MergeOIDs with the reference on one input, including
// nil-ness, and checks that the buckets are left untouched.
func checkMerge(t *testing.T, name string, buckets [][]dual.OID) {
	t.Helper()
	before := make([][]dual.OID, len(buckets))
	for i, b := range buckets {
		before[i] = slices.Clone(b)
	}
	got, want := MergeOIDs(buckets), mergeOIDsRef(before)
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s: MergeOIDs = %v (nil %v), reference %v (nil %v)", name, got, got == nil, want, want == nil)
	}
	for i := range buckets {
		if !slices.Equal(buckets[i], before[i]) {
			t.Fatalf("%s: MergeOIDs modified bucket %d", name, i)
		}
	}
}

// randomBuckets returns k buckets of per emissions each, drawn from
// [lo, lo+span).
func randomBuckets(rng *rand.Rand, k, per int, lo, span uint64) [][]dual.OID {
	buckets := make([][]dual.OID, k)
	for i := range buckets {
		for j := 0; j < per; j++ {
			buckets[i] = append(buckets[i], dual.OID(lo+rng.Uint64()%span))
		}
	}
	return buckets
}

// TestMergeOIDs checks one hand-worked merge, then compares MergeOIDs with
// the reference on both sides of the bitmap/sort selection (bitmap when
// the span needs at most one word per emission), its exact boundary, the
// extremes of the OID space, heavy duplication and inputs with no
// emissions, which must merge to nil.
func TestMergeOIDs(t *testing.T) {
	got := MergeOIDs([][]dual.OID{{5, 1, 9}, nil, {1, 3, 5}, {2}})
	if want := []dual.OID{1, 2, 3, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("MergeOIDs = %v, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(12))
	const top = math.MaxUint64
	cases := []struct {
		name    string
		buckets [][]dual.OID
		bitmap  bool // which path the selection must take
	}{
		{"dense wide query", randomBuckets(rng, 8, 7500, 1000, 100_000), true},
		{"dense from zero", randomBuckets(rng, 3, 200, 0, 640), true},
		{"dense at the top", randomBuckets(rng, 4, 50, top-999, 1000), true},
		{"sparse small query", randomBuckets(rng, 4, 350, 0, 100_000), false},
		{"sparse huge span", randomBuckets(rng, 5, 40, 1<<40, 1<<62), false},
		// Four emissions: a span of four words is the last bitmap case,
		// five words the first sorted one.
		{"boundary words == emissions", [][]dual.OID{{10, 10 + 64*3 + 63}, {10 + 64, 10 + 64*3 + 63}}, true},
		{"boundary words == emissions+1", [][]dual.OID{{10, 10 + 64*4}, {10 + 64, 10 + 64*4}}, false},
		{"zero and max", [][]dual.OID{{top, 0, 5}, {0, top}, {top - 1}}, false},
		{"single max", [][]dual.OID{{top}}, true},
		{"duplicates within and across buckets", [][]dual.OID{{7, 7, 7, 3, 3}, {3, 7, 7}, nil, {7, 3, 9, 9, 9}}, true},
		{"sparse duplicates", [][]dual.OID{{1 << 50, 1 << 50, 2}, {2, 2, 1 << 50}}, false},
		{"nil and empty buckets", [][]dual.OID{nil, {}, {4}, nil, {}}, true},
	}
	for _, c := range cases {
		checkMerge(t, c.name, c.buckets)
		// The bitmap path allocates the bitmap and the answer, the sort
		// path only the answer.
		want := 1.0
		if c.bitmap {
			want = 2
		}
		if got := testing.AllocsPerRun(5, func() { MergeOIDs(c.buckets) }); got != want {
			t.Errorf("%s: %v allocations, want %v (bitmap path %v)", c.name, got, want, c.bitmap)
		}
	}
	for _, empty := range [][][]dual.OID{nil, {}, {nil}, {nil, {}}, {{}, {}}} {
		checkMerge(t, "no emissions", empty)
	}
}

// FuzzMergeOIDs decodes arbitrary bytes into buckets and checks MergeOIDs
// against the reference. Each byte is one emission, base + b<<shift
// (wrapping), except 0xff, which closes the current bucket; a small shift
// gives dense spans, a large one sparse spans, and a base near the top of
// the OID space wraps round to mix OIDs near 0 and math.MaxUint64.
func FuzzMergeOIDs(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xff, 3, 2, 1}, uint64(0), uint8(0))
	f.Add([]byte{0, 0xff, 0xff, 9, 9, 200}, uint64(1000), uint8(20))
	f.Add([]byte{0, 1, 0xff, 2, 3, 4}, uint64(math.MaxUint64-2), uint8(1))
	f.Add([]byte{0, 64, 128, 0xff, 192, 3}, uint64(5), uint8(0))
	f.Add([]byte{}, uint64(0), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, base uint64, shift uint8) {
		var buckets [][]dual.OID
		var cur []dual.OID
		for _, b := range data {
			if b == 0xff {
				buckets = append(buckets, cur)
				cur = nil
				continue
			}
			cur = append(cur, dual.OID(base+uint64(b)<<(shift%64)))
		}
		buckets = append(buckets, cur)
		checkMerge(t, "fuzz", buckets)
	})
}

var mergeSink []dual.OID

// BenchmarkMergeOIDs compares the merge with the sort.Slice reference on
// a dense input shaped like a wide query's per-shard merge (about 60k
// emissions over a 100k OID span in 8 buckets) and a sparse input shaped
// like a small query's (1,400 emissions over the same span in 4 buckets).
func BenchmarkMergeOIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	inputs := []struct {
		name    string
		buckets [][]dual.OID
	}{
		{"dense", randomBuckets(rng, 8, 7500, 0, 100_000)},
		{"sparse", randomBuckets(rng, 4, 350, 0, 100_000)},
	}
	for _, in := range inputs {
		b.Run(in.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mergeSink = mergeOIDsRef(in.buckets)
			}
		})
		b.Run(in.name+"/MergeOIDs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mergeSink = MergeOIDs(in.buckets)
			}
		})
	}
}

func TestRunSubqueriesMergesAndDedups(t *testing.T) {
	subs := []func(emit func(dual.OID)) error{
		func(emit func(dual.OID)) error { emit(7); emit(2); return nil },
		func(emit func(dual.OID)) error { emit(2); emit(4); return nil },
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := RunSubqueries(NewExecutor(workers), subs)
		if err != nil {
			t.Fatal(err)
		}
		want := []dual.OID{2, 4, 7}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
			}
		}
	}
}
