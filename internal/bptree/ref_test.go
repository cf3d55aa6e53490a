package bptree

import (
	"math"
	"testing"

	"mobidx/internal/pager"
)

// The decoding reference reader. Range, RangeAppend, Get, Ceil and Pred
// all walk raw page images; the references below walk the same tree
// through readNode/decode — the mutation path's reader, which builds a
// whole *node per page — so the image walker is checked against an
// independent decoder rather than against itself.

// refRange calls fn for every entry with lo <= key <= hi, in (key, val)
// order, until fn returns false: Range over decoded nodes.
func refRange(t *Tree, lo, hi float64, fn func(Entry) bool) error {
	lo = t.codec.roundKey(lo)
	hi = t.codec.roundKey(hi)
	id := t.root
	for h := t.height; h > 1; h-- {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		id = n.kids[childIndex(n, lo, 0)]
	}
	for id != pager.NilPage {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for _, e := range n.entries[lowerBound(n.entries, lo, 0):] {
			if e.Key > hi || !fn(e) {
				return nil
			}
		}
		id = n.next
	}
	return nil
}

// refCollect returns the reference answer of [lo, hi], stopping after
// limit entries when limit > 0.
func refCollect(t *Tree, lo, hi float64, limit int) ([]Entry, error) {
	var out []Entry
	err := refRange(t, lo, hi, func(e Entry) bool {
		out = append(out, e)
		return limit <= 0 || len(out) < limit
	})
	return out, err
}

// refFloor returns the entry with the largest (key, val) whose key is
// <= key: a recursive descent over decoded nodes that backtracks into
// left siblings when a subtree holds nothing at or below the key.
func refFloor(t *Tree, key float64) (Entry, bool, error) {
	key = t.codec.roundKey(key)
	var at func(id pager.PageID) (Entry, bool, error)
	at = func(id pager.PageID) (Entry, bool, error) {
		n, err := t.readNode(id)
		if err != nil {
			return Entry{}, false, err
		}
		if n.leaf {
			i := upperBound(n.entries, key, math.MaxUint64)
			if i == 0 {
				return Entry{}, false, nil
			}
			return n.entries[i-1], true, nil
		}
		for ci := childIndex(n, key, math.MaxUint64); ci >= 0; ci-- {
			e, ok, err := at(n.kids[ci])
			if err != nil || ok {
				return e, ok, err
			}
		}
		return Entry{}, false, nil
	}
	return at(t.root)
}

// collectLimit gathers Range's answer, stopping after limit entries when
// limit > 0.
func collectLimit(t testing.TB, tr *Tree, lo, hi float64, limit int) []Entry {
	t.Helper()
	var out []Entry
	if err := tr.Range(lo, hi, func(e Entry) bool {
		out = append(out, e)
		return limit <= 0 || len(out) < limit
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkRangeRef asserts that Range (in full and stopped early after one
// entry and after half the answer) and RangeAppend return exactly the
// reference answer of [lo, hi], and returns it.
func checkRangeRef(t testing.TB, tr *Tree, lo, hi float64) []Entry {
	t.Helper()
	want, err := refCollect(tr, lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectLimit(t, tr, lo, hi, 0); !sameEntries(got, want) {
		t.Fatalf("codec=%v Range[%v,%v]: %d entries, reference %d", tr.codec, lo, hi, len(got), len(want))
	}
	for _, limit := range []int{1, len(want)/2 + 1} {
		wantK, err := refCollect(tr, lo, hi, limit)
		if err != nil {
			t.Fatal(err)
		}
		if got := collectLimit(t, tr, lo, hi, limit); !sameEntries(got, wantK) {
			t.Fatalf("codec=%v Range[%v,%v] stopped after %d: %d entries, reference %d",
				tr.codec, lo, hi, limit, len(got), len(wantK))
		}
	}
	got, err := tr.RangeAppend(nil, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(got, want) {
		t.Fatalf("codec=%v RangeAppend[%v,%v]: %d entries, reference %d", tr.codec, lo, hi, len(got), len(want))
	}
	return want
}
