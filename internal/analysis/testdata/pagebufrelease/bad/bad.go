// Package bad exercises every leak shape the pagebufrelease pass
// reports: a return with the buffer still live, an early return that
// skips the release on one path, a discarded acquisition, and a
// reassignment that overwrites a live buffer — for PageBufs and for
// pooled pages.
package bad

import (
	"errors"

	"mobidx/internal/pager"
)

var errEmpty = errors.New("empty page")

func check(b []byte) error {
	if len(b) == 0 {
		return errEmpty
	}
	return nil
}

func leakOnReturn(s pager.Store) error {
	pb := pager.GetPageBuf(64)
	pb.B[0] = 1
	return s.Write(&pager.Page{ID: 1, Data: pb.B})
}

func leakOnOnePath(cond bool) {
	pb := pager.GetPageBuf(64)
	if cond {
		return
	}
	pb.Release()
}

func discarded() {
	_ = pager.GetPageBuf(32)
}

func reassigned() {
	pb := pager.GetPageBuf(32)
	pb = pager.GetPageBuf(64)
	pb.Release()
}

// Pooled page images: a *pager.Page the function Releases somewhere
// must be Released on every path after the read that assigned it.

func pageLeakOnReturn(s pager.Store) ([]byte, error) {
	p, err := s.Read(1)
	if err != nil {
		return nil, err // no page on the error path: not a finding
	}
	if len(p.Data) == 0 {
		return nil, errEmpty
	}
	out := append([]byte(nil), p.Data...)
	p.Release()
	return out, nil
}

func pageLeakAfterSecondCheck(s pager.Store) error {
	p, err := s.Read(1)
	if err != nil {
		return err
	}
	err = check(p.Data)
	if err != nil {
		return err // err no longer says whether p holds a page
	}
	p.Release()
	return nil
}

func pageLeakInLoop(s pager.Store, ids []pager.PageID) int {
	n := 0
	for _, id := range ids {
		p, err := s.Read(id)
		if err != nil {
			return n
		}
		n += len(p.Data)
		if n > 4096 {
			p.Release()
		}
	}
	return n
}

func pageReassigned(s pager.Store) {
	p, _ := s.Read(1)
	p, _ = s.Read(2)
	p.Release()
}
