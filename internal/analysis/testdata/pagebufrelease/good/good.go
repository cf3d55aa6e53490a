// Package good holds PageBuf usage the pagebufrelease pass must accept:
// release on every path, deferred release, and ownership hand-off.
package good

import "mobidx/internal/pager"

func releaseAllPaths(s pager.Store, cond bool) error {
	pb := pager.GetPageBuf(64)
	if cond {
		pb.Release()
		return nil
	}
	err := s.Write(&pager.Page{ID: 1, Data: pb.B})
	pb.Release()
	return err
}

func deferred(s pager.Store) error {
	pb := pager.GetPageBuf(64)
	defer pb.Release()
	return s.Write(&pager.Page{ID: 2, Data: pb.B})
}

func consume(pb *pager.PageBuf) { pb.Release() }

func handedOff() {
	pb := pager.GetPageBuf(16)
	consume(pb)
}

func releasedInLoop(s pager.Store, n int) error {
	for i := 0; i < n; i++ {
		pb := pager.GetPageBuf(32)
		if err := s.Write(&pager.Page{ID: pager.PageID(i + 1), Data: pb.B}); err != nil {
			pb.Release()
			return err
		}
		pb.Release()
	}
	return nil
}

// Pooled page images.

func pageReleasedOnAllPaths(s pager.Store) (byte, error) {
	p, err := s.Read(1)
	if err != nil {
		return 0, err
	}
	if len(p.Data) == 0 {
		p.Release()
		return 0, nil
	}
	b := p.Data[0]
	p.Release()
	return b, nil
}

func pageDeferred(s pager.Store) (pager.PageID, error) {
	p, err := s.Read(2)
	defer p.Release() // nil-safe, so it may precede the error check
	if err != nil {
		return 0, err
	}
	return p.ID, nil
}

func consumePage(p *pager.Page) { p.Release() }

func pageHandedOff(s pager.Store) error {
	p, err := s.Read(3)
	if err != nil {
		return err
	}
	consumePage(p)
	p.Release() // no-op after the hand-off ended tracking
	return nil
}

func pageReturned(s pager.Store, id pager.PageID) (*pager.Page, error) {
	p, err := s.Read(id)
	if err != nil {
		return nil, err
	}
	if len(p.Data) == 0 {
		p.Release()
		return nil, nil
	}
	return p, nil
}

// pageNeverReleased keeps its page: pages a function never Releases are
// not tracked, so the pool stays optional for code that does not use it.
func pageNeverReleased(s pager.Store) ([]byte, error) {
	p, err := s.Read(4)
	if err != nil {
		return nil, err
	}
	return p.Data, nil
}

func pageReleasedInLoop(s pager.Store, ids []pager.PageID) (int, error) {
	n := 0
	for _, id := range ids {
		p, err := s.Read(id)
		if err != nil {
			return n, err
		}
		n += len(p.Data)
		p.Release()
	}
	return n, nil
}
