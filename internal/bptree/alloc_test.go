package bptree

import (
	"math/rand"
	"path/filepath"
	"testing"

	"mobidx/internal/pager"
)

// allocTree builds a Compact tree of n entries behind a buffer pool large
// enough to hold it whole, then warms the pool, so the measured loops run
// against the steady-state serving configuration: every descent is a pool
// hit served through the zero-copy view path.
func allocTree(t testing.TB, n int) (*Tree, []Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(1999))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: Compact.roundKey(rng.Float64() * 1000), Val: uint64(i), Aux: Compact.roundKey(rng.Float64())}
	}
	SortEntries(es)
	tr, err := New(pager.NewBuffered(pager.NewMemStore(4096), 4096), Config{Codec: Compact})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoadSorted(es, 0); err != nil {
		t.Fatal(err)
	}
	for _, e := range es[:64] {
		if _, _, err := tr.Get(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	return tr, es
}

// The regression gate for the tentpole claim: a steady-state point query
// performs zero heap allocations above the buffer pool.
func TestPointQueryZeroAlloc(t *testing.T) {
	tr, es := allocTree(t, 50000)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e := es[i%len(es)]
		i++
		if _, _, err := tr.Get(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("point query allocates %.1f objects/op, want 0", allocs)
	}
}

// A range scan into a caller-owned buffer with sufficient capacity must
// also run allocation-free.
func TestRangeAppendZeroAlloc(t *testing.T) {
	tr, es := allocTree(t, 50000)
	buf := make([]Entry, 0, 4096)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		lo := es[(i*37)%len(es)].Key
		i++
		var err error
		buf, err = tr.RangeAppend(buf[:0], lo, lo+0.5)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RangeAppend allocates %.1f objects/op, want 0", allocs)
	}
}

// The callback Range is the walker every Dual-B+ sign scan and interval
// stab runs: over a pool-resident tree it must not allocate either.
func TestRangeZeroAlloc(t *testing.T) {
	tr, es := allocTree(t, 50000)
	i, n := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		lo := es[(i*37)%len(es)].Key
		i++
		if err := tr.Range(lo, lo+0.5, func(Entry) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Range allocates %.1f objects/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("Range visited no entries")
	}
}

// fileTree builds a Compact tree of n entries on a FileStore — the store
// under the WAL on the shipping stack, which has no zero-copy path, so
// every page the walker touches is a pread into a pooled image.
func fileTree(t testing.TB, n int) (*Tree, *pager.FileStore) {
	t.Helper()
	fs, err := pager.NewFileStore(filepath.Join(t.TempDir(), "tree.pages"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fs.Close(); err != nil {
			t.Error(err)
		}
	})
	tr, err := New(fs, Config{Codec: Compact})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: rng.Float64() * 1000, Val: uint64(i), Aux: rng.Float64()}
	}
	if err := tr.BulkLoad(es, 0); err != nil {
		t.Fatal(err)
	}
	return tr, fs
}

// A multi-leaf Range over a FileStore reads every page into a pooled
// image and releases it, so once the pool is warm the scan allocates no
// page-sized buffer: what remains per page read is the small *Page
// header, well under 128 bytes.
func TestRangeFileStoreNoPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	tr, fs := fileTree(t, 40000)
	scan := func() {
		n := 0
		if err := tr.Range(400, 430, func(Entry) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n < 2*tr.LeafCap() {
			t.Fatalf("range visited %d entries, want a multi-leaf scan", n)
		}
	}
	scan() // warm the pool
	before := fs.Stats().Reads
	scan()
	pages := float64(fs.Stats().Reads - before)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan()
		}
	})
	t.Logf("%d B/op, %d allocs/op, %.0f page reads/op", res.AllocedBytesPerOp(), res.AllocsPerOp(), pages)
	if bpo := float64(res.AllocedBytesPerOp()); bpo >= 128*pages {
		t.Fatalf("Range over FileStore allocates %.0f B/op for %.0f page reads/op, want < %.0f",
			bpo, pages, 128*pages)
	}
}

func BenchmarkPointQuery(b *testing.B) {
	tr, es := allocTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := es[i%len(es)]
		if _, _, err := tr.Get(e.Key, e.Val); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(7))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: rng.Float64() * 1000, Val: uint64(i), Aux: rng.Float64()}
	}
	return es
}

func BenchmarkBuildIncremental(b *testing.B) {
	es := benchEntries(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := New(pager.NewBuffered(pager.NewMemStore(4096), 64), Config{Codec: Compact})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range es {
			if err := tr.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBuildBulk(b *testing.B) {
	es := benchEntries(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := New(pager.NewBuffered(pager.NewMemStore(4096), 64), Config{Codec: Compact})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.BulkLoad(es, 0); err != nil {
			b.Fatal(err)
		}
	}
}
