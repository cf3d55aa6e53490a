package pager

import (
	"fmt"
	"sync"
)

// Viewer is an optional Store capability: zero-copy read access to a
// page's bytes. View returns the store's own image of the page instead of
// a fresh copy, so a steady-state query that only descends an index
// performs no heap allocation at all (the hot-loop discipline enforced by
// the AllocsPerRun gates in the index packages).
//
// The returned slice is read-only and stable: stores that implement
// Viewer install a fresh image on every Write rather than mutating the
// old one in place, so a slice obtained before a concurrent write remains
// a consistent (if stale) snapshot of the page. Callers must never write
// through it and must not use it after freeing the page.
type Viewer interface {
	View(id PageID) ([]byte, error)
}

// ReadImage returns page id's bytes for read-only use. A store with a
// zero-copy path (Viewer) serves its own image and pg is nil; otherwise
// the page comes from an ordinary Read and pg is that page, which the
// caller Releases once it no longer touches img. Release is nil-safe, so
// callers release unconditionally.
func ReadImage(s Store, id PageID) (img []byte, pg *Page, err error) {
	if v, ok := s.(Viewer); ok {
		img, err = v.View(id)
		return img, nil, err
	}
	pg, err = s.Read(id)
	if err != nil {
		return nil, nil, err
	}
	return pg.Data, pg, nil
}

// View implements Viewer: the stored image is returned directly, under
// the read-latch only for the map lookup. Write installs a fresh slice
// per page (never mutating the old image), which is what makes the
// returned bytes a stable snapshot.
func (m *MemStore) View(id PageID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	buf, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	m.stats.reads.Add(1)
	return buf, nil
}

// View implements Viewer. A pool hit returns the cached frame's bytes
// with no copy and no store I/O — frames are immutable once installed
// (see bufFrame), so the slice stays consistent even if the page is
// rewritten later. A miss reads through to the underlying store and
// installs the frame exactly like Read.
func (b *Buffered) View(id PageID) ([]byte, error) {
	sh := b.shard(id)
	sh.mu.RLock()
	if f, ok := sh.frames[id]; ok {
		f.tick.Store(sh.clock.Add(1))
		data := f.data
		sh.mu.RUnlock()
		return data, nil
	}
	sh.mu.RUnlock()
	p, err := b.under.Read(id)
	if err != nil {
		return nil, err
	}
	b.install(id, p.Data)
	return p.Data, nil
}

// PageBuf is a pooled page-sized buffer. Node encoders serialize a node
// into B and hand it to Store.Write — every Store implementation copies
// the data before returning (Write never retains p.Data) — then Release
// the buffer, so a build writes thousands of pages through a handful of
// recycled buffers instead of allocating one per write. The read paths
// draw their page images from the same pool (see Page.Release).
type PageBuf struct {
	B []byte
}

var pageBufPool = sync.Pool{New: func() any { return new(PageBuf) }}

// getPageBuf returns a pooled buffer of the given size with unspecified
// contents.
func getPageBuf(size int) *PageBuf {
	pb := pageBufPool.Get().(*PageBuf)
	if cap(pb.B) < size {
		pb.B = make([]byte, size)
	}
	pb.B = pb.B[:size]
	return pb
}

// GetPageBuf returns a zeroed scratch buffer of the given size from the
// pool. Release it when the Write it fed has returned.
func GetPageBuf(size int) *PageBuf {
	pb := getPageBuf(size)
	clear(pb.B)
	return pb
}

// Release returns the buffer to the pool.
func (pb *PageBuf) Release() { pageBufPool.Put(pb) }

// pooledPage returns page id with a pooled image of size bytes and
// unspecified contents; the caller fills every byte before handing it
// out.
func pooledPage(id PageID, size int) *Page {
	pb := getPageBuf(size)
	return &Page{ID: id, Data: pb.B, buf: pb}
}

// pooledCopy returns page id holding a pooled copy of img.
func pooledCopy(id PageID, img []byte) *Page {
	p := pooledPage(id, len(img))
	copy(p.Data, img)
	return p
}

// Release hands a pooled page image back to the pool and nils Data. The
// read paths that copy or pread a page (FileStore, the WAL's committed
// table, Txn) return pooled images; a reader that is done with the bytes
// may Release them so the next read reuses the buffer instead of
// allocating one. Releasing is optional — an unreleased image is simply
// garbage-collected — but after Release the page's bytes belong to the
// pool, so no slice of Data may be used again. Release is a no-op on a
// nil page, an unpooled page (MemStore copies, Allocate, caller-built
// pages) and a page already released.
func (p *Page) Release() {
	if p == nil || p.buf == nil {
		return
	}
	p.buf.Release()
	p.buf = nil
	p.Data = nil
}
