package main

import (
	"fmt"
	"io"

	"mobidx/internal/pager"
)

// The spies time every call the cluster makes into a store or a log and
// record it as a store-level span. A spy must expose exactly the optional
// pager interfaces of the value it wraps: the pager and the shard pick
// their code paths by type assertion (RunBatch on Batcher, ViewBytes on
// Viewer, WAL recovery on Adopter and Syncer), so an extra or a missing
// method would make the traced run execute different code.

// Optional interfaces a store may implement, as bits.
const (
	optBatcher = 1 << iota
	optViewer
	optAdopter
	optSyncer
	optCloser
)

// optionalSet returns the optional pager interfaces s implements.
func optionalSet(s any) int {
	set := 0
	if _, ok := s.(pager.Batcher); ok {
		set |= optBatcher
	}
	if _, ok := s.(pager.Viewer); ok {
		set |= optViewer
	}
	if _, ok := s.(pager.Adopter); ok {
		set |= optAdopter
	}
	if _, ok := s.(pager.Syncer); ok {
		set |= optSyncer
	}
	if _, ok := s.(io.Closer); ok {
		set |= optCloser
	}
	return set
}

// spyKinds are the span kinds one spy records.
type spyKinds struct{ read, write, alloc, free, sync spanKind }

var (
	walKinds  = spyKinds{read: kWALRead, write: kWALWrite, alloc: kWALAlloc, free: kWALFree}
	fileKinds = spyKinds{read: kFileRead, write: kFileWrite, alloc: kFileAlloc, free: kFileFree, sync: kFileSync}
)

// storeSpy times the pager.Store methods of inner.
type storeSpy struct {
	inner pager.Store
	tr    *tracer
	media int
	k     spyKinds
}

func (s *storeSpy) PageSize() int                      { return s.inner.PageSize() }
func (s *storeSpy) Stats() pager.Stats                 { return s.inner.Stats() }
func (s *storeSpy) PagesInUse() int                    { return s.inner.PagesInUse() }
func (s *storeSpy) start() (int64, bool)               { return s.tr.now(), s.tr.active() }
func (s *storeSpy) done(k spanKind, t0 int64, n int64) { s.tr.record(k, s.media, t0, n) }

func (s *storeSpy) Allocate() (*pager.Page, error) {
	t0, on := s.start()
	p, err := s.inner.Allocate()
	if on {
		s.done(s.k.alloc, t0, 0)
	}
	return p, err
}

func (s *storeSpy) Read(id pager.PageID) (*pager.Page, error) {
	t0, on := s.start()
	p, err := s.inner.Read(id)
	if on {
		s.done(s.k.read, t0, int64(s.inner.PageSize()))
	}
	return p, err
}

func (s *storeSpy) Write(p *pager.Page) error {
	t0, on := s.start()
	err := s.inner.Write(p)
	if on {
		s.done(s.k.write, t0, int64(len(p.Data)))
	}
	return err
}

func (s *storeSpy) Free(id pager.PageID) error {
	t0, on := s.start()
	err := s.inner.Free(id)
	if on {
		s.done(s.k.free, t0, 0)
	}
	return err
}

type spyBatcher struct{ s *storeSpy }

func (b spyBatcher) Begin() error    { return b.s.inner.(pager.Batcher).Begin() }
func (b spyBatcher) Commit() error   { return b.s.inner.(pager.Batcher).Commit() }
func (b spyBatcher) Rollback() error { return b.s.inner.(pager.Batcher).Rollback() }

type spyAdopter struct{ s *storeSpy }

func (a spyAdopter) Adopt(id pager.PageID) error  { return a.s.inner.(pager.Adopter).Adopt(id) }
func (a spyAdopter) Disown(id pager.PageID) error { return a.s.inner.(pager.Adopter).Disown(id) }

type spySyncer struct{ s *storeSpy }

func (y spySyncer) Sync() error {
	t0, on := y.s.start()
	err := y.s.inner.(pager.Syncer).Sync()
	if on {
		y.s.done(y.s.k.sync, t0, 0)
	}
	return err
}

type spyCloser struct{ s *storeSpy }

func (c spyCloser) Close() error { return c.s.inner.(io.Closer).Close() }

// walSpy wraps a *pager.WALStore: Batcher and Close.
type walSpy struct {
	*storeSpy
	spyBatcher
	spyCloser
}

// fileSpy wraps a *pager.FileStore: Syncer, Adopter and Close.
type fileSpy struct {
	*storeSpy
	spySyncer
	spyAdopter
	spyCloser
}

// wrapStore returns a spy around inner that implements the same optional
// interfaces. A store with another combination is refused, so a change to
// the stores' interfaces fails the traced run instead of skewing it.
func wrapStore(inner pager.Store, tr *tracer, media int, k spyKinds) (pager.Store, error) {
	s := &storeSpy{inner: inner, tr: tr, media: media, k: k}
	switch set := optionalSet(inner); set {
	case optBatcher | optCloser:
		return walSpy{s, spyBatcher{s}, spyCloser{s}}, nil
	case optSyncer | optAdopter | optCloser:
		return fileSpy{s, spySyncer{s}, spyAdopter{s}, spyCloser{s}}, nil
	default:
		return nil, fmt.Errorf("no spy for a %T with optional interface set %05b", inner, set)
	}
}

// logSpy times the appends, syncs and truncates of a write-ahead log.
type logSpy struct {
	inner pager.LogFile
	tr    *tracer
	media int
}

func (l *logSpy) ReadAt(p []byte, off int64) (int, error) { return l.inner.ReadAt(p, off) }
func (l *logSpy) Size() (int64, error)                    { return l.inner.Size() }
func (l *logSpy) Close() error                            { return l.inner.Close() }

func (l *logSpy) Append(b []byte) error {
	t0, on := l.tr.now(), l.tr.active()
	err := l.inner.Append(b)
	if on {
		l.tr.record(kLogAppend, l.media, t0, int64(len(b)))
	}
	return err
}

func (l *logSpy) Truncate(size int64) error {
	t0, on := l.tr.now(), l.tr.active()
	err := l.inner.Truncate(size)
	if on {
		l.tr.record(kLogTruncate, l.media, t0, 0)
	}
	return err
}

func (l *logSpy) Sync() error {
	t0, on := l.tr.now(), l.tr.active()
	err := l.inner.Sync()
	if on {
		l.tr.record(kLogSync, l.media, t0, 0)
	}
	return err
}
