// The read path. Every query — Range (and RangeAppend over it), Get,
// Ceil and Pred — descends the tree over raw page images and binary
// searches the encoded separators and entries in place; only the entries
// it visits are decoded, into Entry values, and no *node is built. Pages
// come from pager.ReadImage: a pool-resident page is the buffer pool's own
// immutable frame (no copy), and a page read through a store without a
// zero-copy path (FileStore, the WAL) is a pooled image that the walker
// Releases as soon as it has taken what it needs from it, so a scan
// allocates no page-sized buffer per page. The AllocsPerRun gates in
// alloc_test.go hold the pool-resident path to zero allocs per op. The
// decoding readNode/decode path serves only the mutations (insert,
// delete, rebalance) and CheckInvariants; the tests keep a decoding
// reference walker built on it to check this one against.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mobidx/internal/pager"
)

// checkImage bounds-checks a raw page image of the expected node type and
// returns its entry count. Same guarantees as decode: a corrupted page
// yields a typed error wrapping pager.ErrPageCorrupt, never a panic.
func (t *Tree) checkImage(d []byte, id pager.PageID, wantLeaf bool) (int, error) {
	if len(d) < headerSize+4 {
		return 0, fmt.Errorf("bptree: page %d: %d bytes, want >= %d: %w",
			id, len(d), headerSize+4, pager.ErrPageCorrupt)
	}
	want := byte(typeInternal)
	if wantLeaf {
		want = typeLeaf
	}
	if d[0] != want {
		return 0, fmt.Errorf("bptree: page %d: node type %d, want %d: %w",
			id, d[0], want, pager.ErrPageCorrupt)
	}
	count := int(binary.LittleEndian.Uint16(d[2:4]))
	var cap int
	if wantLeaf {
		cap = (len(d) - headerSize) / t.codec.leafEntrySize()
	} else {
		cap = (len(d) - headerSize - 4) / t.codec.intEntrySize()
	}
	if count > cap {
		return 0, fmt.Errorf("bptree: page %d: count %d exceeds page capacity %d: %w",
			id, count, cap, pager.ErrPageCorrupt)
	}
	return count, nil
}

// sepAt decodes separator i's composite (key, val) from an internal page
// image.
func (t *Tree) sepAt(d []byte, i int) (float64, uint64) {
	if t.codec == Compact {
		off := headerSize + 4 + i*12
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(d[off:]))),
			uint64(binary.LittleEndian.Uint32(d[off+4:]))
	}
	off := headerSize + 4 + i*20
	return math.Float64frombits(binary.LittleEndian.Uint64(d[off:])),
		binary.LittleEndian.Uint64(d[off+8:])
}

// childAt decodes child slot ci (0..count) from an internal page image.
func (t *Tree) childAt(d []byte, ci int) pager.PageID {
	if ci == 0 {
		return pager.PageID(binary.LittleEndian.Uint32(d[headerSize:]))
	}
	es := t.codec.intEntrySize()
	off := headerSize + 4 + (ci-1)*es + es - 4
	return pager.PageID(binary.LittleEndian.Uint32(d[off:]))
}

// imageChildIndex is childIndex over an internal page image: the first
// child whose separator exceeds (k, v); composites equal to a separator
// descend right of it.
func (t *Tree) imageChildIndex(d []byte, count int, k float64, v uint64) int {
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		sk, sv := t.sepAt(d, mid)
		if sk < k || (sk == k && sv <= v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafKV decodes leaf entry i's composite (key, val) from a page image.
func (t *Tree) leafKV(d []byte, i int) (float64, uint64) {
	if t.codec == Compact {
		off := headerSize + i*12
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(d[off:]))),
			uint64(binary.LittleEndian.Uint32(d[off+8:]))
	}
	off := headerSize + i*24
	return math.Float64frombits(binary.LittleEndian.Uint64(d[off:])),
		binary.LittleEndian.Uint64(d[off+16:])
}

// imageLowerBound is lowerBound over a leaf page image: the first index
// whose entry is >= (k, v).
func (t *Tree) imageLowerBound(d []byte, count int, k float64, v uint64) int {
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		ek, ev := t.leafKV(d, mid)
		if ek < k || (ek == k && ev < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// nodeImage returns page id's raw image, checked to be a node of the
// wanted kind, and its entry count. pg is the page to Release once d is
// no longer used (nil for a zero-copy view; Release is nil-safe). A
// pointer to a page the store does not have is a corrupt pointer, so that
// error wraps pager.ErrPageCorrupt as well as the store's own.
func (t *Tree) nodeImage(id pager.PageID, leaf bool) (d []byte, count int, pg *pager.Page, err error) {
	d, pg, err = pager.ReadImage(t.store, id)
	if err != nil {
		if errors.Is(err, pager.ErrPageNotFound) || errors.Is(err, pager.ErrReservedPage) {
			err = fmt.Errorf("bptree: page %d: dangling pointer: %w: %w", id, pager.ErrPageCorrupt, err)
		}
		return nil, 0, nil, err
	}
	if count, err = t.checkImage(d, id, leaf); err != nil {
		pg.Release()
		return nil, 0, nil, err
	}
	return d, count, pg, nil
}

// nextLeaf reads the next-leaf pointer out of a leaf page image.
func nextLeaf(d []byte) pager.PageID { return pager.PageID(binary.LittleEndian.Uint32(d[4:8])) }

// entryAt decodes leaf entry i of a page image.
func (t *Tree) entryAt(d []byte, i int) Entry {
	es := t.codec.leafEntrySize()
	return t.decodeEntry(d[headerSize+i*es : headerSize+(i+1)*es])
}

// descendToLeaf walks internal levels toward the leaf that would hold
// composite (k, v), over raw page images.
func (t *Tree) descendToLeaf(k float64, v uint64) (pager.PageID, error) {
	id := t.root
	for h := t.height; h > 1; h-- {
		d, count, pg, err := t.nodeImage(id, false)
		if err != nil {
			return pager.NilPage, err
		}
		kid := t.childAt(d, t.imageChildIndex(d, count, k, v))
		pg.Release()
		if kid == pager.NilPage {
			return pager.NilPage, fmt.Errorf("bptree: page %d: nil child pointer: %w", id, pager.ErrPageCorrupt)
		}
		id = kid
	}
	return id, nil
}

// Get returns the entry with exactly the given (key, val) composite, in
// one root-to-leaf descent over raw page images: the steady-state point
// query performs zero heap allocations when the path is resident in the
// buffer pool. The key is compared after codec rounding.
func (t *Tree) Get(key float64, val uint64) (Entry, bool, error) {
	key = t.codec.roundKey(key)
	id, err := t.descendToLeaf(key, val)
	if err != nil {
		return Entry{}, false, err
	}
	d, count, pg, err := t.nodeImage(id, true)
	if err != nil {
		return Entry{}, false, err
	}
	var (
		e  Entry
		ok bool
	)
	if i := t.imageLowerBound(d, count, key, val); i < count {
		if ek, ev := t.leafKV(d, i); ek == key && ev == val {
			e, ok = t.entryAt(d, i), true
		}
	}
	pg.Release()
	return e, ok, nil
}

// Ceil returns the smallest entry whose key is >= key, or ok=false when
// every key is below it. One root-to-leaf descent over raw page images
// (plus a next-leaf hop when the target leaf's tail was deleted): the
// successor probe kinetic certificate scheduling leans on, zero-alloc
// when the path is pool-resident.
func (t *Tree) Ceil(key float64) (Entry, bool, error) {
	var (
		e  Entry
		ok bool
	)
	err := t.Range(key, math.Inf(1), func(first Entry) bool {
		e, ok = first, true
		return false
	})
	return e, ok, err
}

// imageUpperBoundKey is the first leaf index whose key exceeds k.
func (t *Tree) imageUpperBoundKey(d []byte, count int, k float64) int {
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		if ek, _ := t.leafKV(d, mid); ek <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Pred returns the entry with the largest (key, val) whose key is <= key,
// or ok=false when every key exceeds it: the predecessor probe twin of
// Ceil, over raw page images. Leaves carry no back-pointers, so the
// descent remembers the deepest left sibling subtree and walks its right
// spine when the target leaf holds nothing at or below the key.
func (t *Tree) Pred(key float64) (Entry, bool, error) {
	key = t.codec.roundKey(key)
	id := t.root
	fallback := pager.NilPage
	fallbackH := 0
	for h := t.height; h > 1; h-- {
		d, count, pg, err := t.nodeImage(id, false)
		if err != nil {
			return Entry{}, false, err
		}
		ci := t.imageChildIndex(d, count, key, math.MaxUint64)
		if ci > 0 {
			fallback = t.childAt(d, ci-1)
			fallbackH = h - 1
		}
		kid := t.childAt(d, ci)
		pg.Release()
		if kid == pager.NilPage {
			return Entry{}, false, fmt.Errorf("bptree: page %d: nil child pointer: %w", id, pager.ErrPageCorrupt)
		}
		id = kid
	}
	d, count, pg, err := t.nodeImage(id, true)
	if err != nil {
		return Entry{}, false, err
	}
	if i := t.imageUpperBoundKey(d, count, key); i > 0 {
		e := t.entryAt(d, i-1)
		pg.Release()
		return e, true, nil
	}
	pg.Release()
	if fallback == pager.NilPage {
		return Entry{}, false, nil
	}
	id = fallback
	for h := fallbackH; h > 1; h-- {
		d, count, pg, err := t.nodeImage(id, false)
		if err != nil {
			return Entry{}, false, err
		}
		kid := t.childAt(d, count)
		pg.Release()
		if kid == pager.NilPage {
			return Entry{}, false, fmt.Errorf("bptree: page %d: nil child pointer: %w", id, pager.ErrPageCorrupt)
		}
		id = kid
	}
	d, count, pg, err = t.nodeImage(id, true)
	if err != nil {
		return Entry{}, false, err
	}
	var (
		e  Entry
		ok bool
	)
	if count > 0 {
		e, ok = t.entryAt(d, count-1), true
	}
	pg.Release()
	return e, ok, nil
}

// Range calls fn for every entry with lo <= key <= hi, in (key, val)
// order, until fn returns false. Keys are compared after codec rounding.
// It is the one leaf walker: a descent to the leaf holding lo, then the
// leaf chain, each leaf binary searched for lo and scanned in place. Each
// pooled page is Released as soon as its next-leaf pointer is taken and
// its entries are visited, so fn never sees page bytes — only Entry
// values — and may keep them.
func (t *Tree) Range(lo, hi float64, fn func(Entry) bool) error {
	lo = t.codec.roundKey(lo)
	hi = t.codec.roundKey(hi)
	id, err := t.descendToLeaf(lo, 0)
	if err != nil {
		return err
	}
	var lastK float64
	var lastV uint64
	for hop := 0; id != pager.NilPage; hop++ {
		d, count, pg, err := t.nodeImage(id, true)
		if err != nil {
			return err
		}
		if hop > 0 && !t.continuesChain(d, count, lo, lastK, lastV) {
			pg.Release()
			return fmt.Errorf("bptree: page %d: leaf chain out of order: %w", id, pager.ErrPageCorrupt)
		}
		cur := id
		id = nextLeaf(d)
		for i := t.imageLowerBound(d, count, lo, 0); i < count; i++ {
			if e := t.entryAt(d, i); e.Key > hi || !fn(e) {
				pg.Release()
				return nil
			}
		}
		if count > 0 {
			lastK, lastV = t.leafKV(d, count-1)
		}
		pg.Release()
		if id == cur {
			return fmt.Errorf("bptree: page %d: leaf links to itself: %w", cur, pager.ErrPageCorrupt)
		}
	}
	return nil
}

// continuesChain reports whether a leaf image (count entries) may follow,
// on a scan from lo, a leaf whose last entry is (k, v). In a valid tree
// only the root leaf is ever empty, and every leaf after the one the scan
// descended to starts at or above lo and at or above its predecessor's
// last entry. The check costs one entry decode per leaf hop and keeps a
// corrupted next-leaf pointer from cycling the scan forever. It rejects
// only an order it can see is wrong, so NaN bounds or keys — unordered —
// never fail it.
func (t *Tree) continuesChain(d []byte, count int, lo, k float64, v uint64) bool {
	if count == 0 {
		return false
	}
	fk, fv := t.leafKV(d, 0)
	return !(fk < lo) && !(fk < k || (fk == k && fv < v))
}

// RangeAppend appends every entry with lo <= key <= hi to dst, in (key,
// val) order, and returns the extended slice: Range with a caller-owned
// result buffer. When dst has capacity for the answer and the scanned
// path is pool-resident, the call performs zero heap allocations.
func (t *Tree) RangeAppend(dst []Entry, lo, hi float64) ([]Entry, error) {
	err := t.Range(lo, hi, func(e Entry) bool {
		dst = append(dst, e)
		return true
	})
	return dst, err
}
