package bptree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// Readers Range one FileStore-backed tree while a writer churns the same
// store: it inserts into and deletes from a second tree (page allocation,
// encode buffers and decode reads all drawing on the shared page pool)
// and rewrites the first tree's pages with their own bytes. Every answer
// must equal the reference taken before the churn began. A page image
// used after its Release, or released twice, is handed to another
// goroutine's read and shows up here as a wrong answer, and under -race
// as a data race on the pooled buffer.
func TestRangeConcurrentWithWriter(t *testing.T) {
	leakcheck.Check(t)
	tr, fs := fileTree(t, 20000)
	other, err := New(fs, Config{Codec: Wide})
	if err != nil {
		t.Fatal(err)
	}
	type window struct{ lo, hi float64 }
	rng := rand.New(rand.NewSource(31))
	windows := make([]window, 32)
	want := make([][]Entry, len(windows))
	for i := range windows {
		lo := rng.Float64() * 1000
		windows[i] = window{lo, lo + rng.Float64()*40}
		if want[i], err = refCollect(tr, windows[i].lo, windows[i].hi, 0); err != nil {
			t.Fatal(err)
		}
	}
	pages := fs.PagesInUse()

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				i := (round*7 + r) % len(windows)
				var got []Entry
				if err := tr.Range(windows[i].lo, windows[i].hi, func(e Entry) bool {
					got = append(got, e)
					return true
				}); err != nil {
					errs <- err
					return
				}
				if !sameEntries(got, want[i]) {
					errs <- fmt.Errorf("reader %d window %d: %d entries, reference %d", r, i, len(got), len(want[i]))
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- func() error {
			wr := rand.New(rand.NewSource(37))
			for op := 0; op < 1500; op++ {
				e := Entry{Key: wr.Float64() * 100, Val: uint64(op)}
				if err := other.Insert(e); err != nil {
					return err
				}
				if op%3 == 0 {
					if err := other.Delete(e.Key, e.Val); err != nil {
						return err
					}
				}
				id := pager.PageID(1 + wr.Intn(pages))
				p, err := fs.Read(id)
				if err != nil {
					continue // a page of the other tree freed by a merge
				}
				err = fs.Write(p)
				p.Release()
				if err != nil {
					return err
				}
			}
			return nil
		}()
		close(stop)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
