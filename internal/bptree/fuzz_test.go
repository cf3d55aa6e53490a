package bptree

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mobidx/internal/pager"
)

// fuzzPageSize is small so fuzz inputs stay short while still allowing
// multi-entry nodes.
const fuzzPageSize = 256

// validPages encodes genuine leaf and internal pages for both codecs to
// seed the fuzzer with structurally interesting inputs.
func validPages(t interface{ Fatal(...any) }) [][]byte {
	var out [][]byte
	for _, codec := range []Codec{Wide, Compact} {
		store := pager.NewMemStore(fuzzPageSize)
		tr, err := New(store, Config{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if err := tr.Insert(Entry{Key: float64(i % 17), Val: uint64(i), Aux: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Walk every live page: the store is small, ids are dense.
		for id := pager.PageID(1); ; id++ {
			p, err := store.Read(id)
			if err != nil {
				break
			}
			out = append(out, p.Data)
		}
	}
	return out
}

// FuzzDecodeNode feeds arbitrary (and mutated-valid) page images to the
// node decoder. The only acceptable outcomes are a decoded node or an
// error; any panic is a bug. Run with:
//
//	go test -fuzz=FuzzDecodeNode ./internal/bptree
func FuzzDecodeNode(f *testing.F) {
	for _, page := range validPages(f) {
		f.Add(page)
		// Mutated variants: flipped type byte, inflated count, truncation.
		for _, mut := range []func([]byte){
			func(b []byte) { b[0] ^= 3 },
			func(b []byte) { b[2], b[3] = 0xFF, 0xFF },
			func(b []byte) { b[len(b)/2] ^= 0x80 },
		} {
			cp := append([]byte(nil), page...)
			mut(cp)
			f.Add(cp)
		}
		f.Add(page[:headerSize])
		f.Add(page[:headerSize/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, codec := range []Codec{Wide, Compact} {
			store := pager.NewMemStore(fuzzPageSize)
			tr, err := New(store, Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			n, err := tr.decode(&pager.Page{ID: 1, Data: data})
			if err != nil {
				if !errors.Is(err, pager.ErrPageCorrupt) {
					t.Fatalf("decode error outside the corruption taxonomy: %v", err)
				}
				continue
			}
			// A node that decodes must be structurally sane enough for the
			// read paths that follow it.
			if !n.leaf && len(n.kids) != len(n.keys)+1 {
				t.Fatalf("decoded internal node with %d kids, %d keys", len(n.kids), len(n.keys))
			}
		}
	})
}

// TestDecodeMutatedPagesNeverPanics is the deterministic slice of the fuzz
// property that runs on every plain `go test`: random single- and
// multi-byte mutations of valid pages must decode or error, never panic.
func TestDecodeMutatedPagesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pages := validPages(t)
	store := pager.NewMemStore(fuzzPageSize)
	trees := map[Codec]*Tree{}
	for _, codec := range []Codec{Wide, Compact} {
		tr, err := New(store, Config{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		trees[codec] = tr
	}
	for round := 0; round < 5000; round++ {
		page := pages[rng.Intn(len(pages))]
		cp := append([]byte(nil), page...)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			cp[rng.Intn(len(cp))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			cp = cp[:rng.Intn(len(cp)+1)]
		}
		for _, tr := range trees {
			if _, err := tr.decode(&pager.Page{ID: 1, Data: cp}); err != nil &&
				!errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("round %d: error outside taxonomy: %v", round, err)
			}
		}
	}
}

// TestTreeSurvivesCorruptRoot corrupts the root page in the store and
// checks that tree operations return errors instead of panicking.
func TestTreeSurvivesCorruptRoot(t *testing.T) {
	store := pager.NewMemStore(fuzzPageSize)
	tr, err := New(store, Config{Codec: Wide})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(Entry{Key: float64(i), Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	root, err := store.Read(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	root.Data[2], root.Data[3] = 0xFF, 0xFF // absurd entry count
	if err := store.Write(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(Entry{Key: 1000, Val: 1000}); !errors.Is(err, pager.ErrPageCorrupt) {
		t.Fatalf("insert on corrupt root: %v", err)
	}
	if err := tr.Range(0, 100, func(Entry) bool { return true }); !errors.Is(err, pager.ErrPageCorrupt) {
		t.Fatalf("range on corrupt root: %v", err)
	}
	if err := tr.Delete(5, 5); !errors.Is(err, pager.ErrPageCorrupt) {
		t.Fatalf("delete on corrupt root: %v", err)
	}
}

// FuzzRangeImage builds a random tree — either codec, runs of duplicate
// keys, some deletions — and checks the image walker against the
// decoding reference on a fuzzed range: Range in full and stopped early,
// and RangeAppend. With a nonzero xor it then flips bits of one byte of
// one page, leaf or internal, and requires Range, Get, Ceil and Pred to
// return an answer or an error wrapping pager.ErrPageCorrupt — never a
// panic, and never a scan that runs on forever. Run with:
//
//	go test -fuzz=FuzzRangeImage ./internal/bptree
func FuzzRangeImage(f *testing.F) {
	inf := math.Inf(1)
	f.Add(int64(1), uint16(300), 2.0, 9.0, false, uint16(0), uint16(0), byte(0))
	f.Add(int64(2), uint16(700), -inf, inf, true, uint16(0), uint16(0), byte(0))
	f.Add(int64(3), uint16(500), 4.0, 4.0, false, uint16(0), uint16(0), byte(0))
	f.Add(int64(4), uint16(0), -inf, inf, false, uint16(0), uint16(5), byte(1))
	f.Add(int64(5), uint16(900), 0.0, 16.0, true, uint16(3), uint16(4), byte(0x40))
	f.Add(int64(6), uint16(900), 1.0, 12.0, false, uint16(1), uint16(2), byte(0xff))
	f.Add(int64(7), uint16(600), -inf, 8.0, true, uint16(7), uint16(20), byte(0x08))
	f.Add(int64(8), uint16(800), math.NaN(), math.NaN(), false, uint16(0), uint16(0), byte(0))
	f.Add(int64(9), uint16(800), math.NaN(), 10.0, true, uint16(0), uint16(0), byte(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, lo, hi float64, compact bool, page, off uint16, xor byte) {
		codec := Wide
		if compact {
			codec = Compact
		}
		store := pager.NewMemStore(fuzzPageSize)
		tr, err := New(store, Config{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		size := int(n % 1200)
		for i := 0; i < size; i++ {
			key := float64(rng.Intn(64)) / 4
			if rng.Intn(2) == 0 {
				key = rng.Float64() * 16
			}
			if err := tr.Insert(Entry{Key: key, Val: uint64(i), Aux: rng.Float64()}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				if err := tr.Delete(key, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if xor == 0 {
			checkRangeRef(t, tr, lo, hi)
			return
		}
		id := pager.PageID(1 + int(page)%store.PagesInUse())
		p, err := store.Read(id)
		if err != nil {
			return // a page freed by a merge
		}
		p.Data[int(off)%len(p.Data)] ^= xor
		if err := store.Write(p); err != nil {
			t.Fatal(err)
		}
		corrupt := func(op string, err error) {
			if err != nil && !errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("%s on a mutated page: error outside the corruption taxonomy: %v", op, err)
			}
		}
		visits := 0
		corrupt("Range", tr.Range(lo, hi, func(Entry) bool {
			visits++
			return visits < 1<<16
		}))
		_, err = tr.RangeAppend(nil, lo, hi)
		corrupt("RangeAppend", err)
		_, _, err = tr.Get(lo, uint64(seed))
		corrupt("Get", err)
		_, _, err = tr.Ceil(lo)
		corrupt("Ceil", err)
		_, _, err = tr.Pred(hi)
		corrupt("Pred", err)
	})
}

// TestRangeRejectsCyclicLeafChain points a leaf's next-leaf pointer back
// at an earlier leaf, and at the leaf itself: Range must report
// ErrPageCorrupt after at most one pass over the entries instead of
// scanning the cycle forever.
func TestRangeRejectsCyclicLeafChain(t *testing.T) {
	for _, self := range []bool{false, true} {
		store := pager.NewMemStore(fuzzPageSize)
		tr, err := New(store, Config{Codec: Wide})
		if err != nil {
			t.Fatal(err)
		}
		const n = 200
		for i := 0; i < n; i++ {
			if err := tr.Insert(Entry{Key: float64(i), Val: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		id := tr.root
		for h := tr.height; h > 1; h-- {
			nd, err := tr.readNode(id)
			if err != nil {
				t.Fatal(err)
			}
			id = nd.kids[0]
		}
		var leaves []pager.PageID
		for id != pager.NilPage {
			leaves = append(leaves, id)
			nd, err := tr.readNode(id)
			if err != nil {
				t.Fatal(err)
			}
			id = nd.next
		}
		if len(leaves) < 4 {
			t.Fatalf("want a multi-leaf chain, got %d leaves", len(leaves))
		}
		from, to := leaves[2], leaves[0]
		if self {
			to = from
		}
		p, err := store.Read(from)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(p.Data[4:8], uint32(to))
		if err := store.Write(p); err != nil {
			t.Fatal(err)
		}
		visits := 0
		err = tr.Range(math.Inf(-1), math.Inf(1), func(Entry) bool {
			visits++
			return visits < 10*n
		})
		if !errors.Is(err, pager.ErrPageCorrupt) || visits > n {
			t.Fatalf("self=%v: Range over a cyclic chain: err %v after %d visits", self, err, visits)
		}
	}
}
