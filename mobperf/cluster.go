package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/shard"
)

// benchEnv is the shard.Env the cluster is opened on: a DirEnv whose shard
// media it remembers, so the benchmark can read each base store's Stats.
// In a traced run it also puts spies around each shard's base store and
// log. The manifest's media are passed through untouched.
type benchEnv struct {
	dir *shard.DirEnv
	tr  *tracer // nil: no spies

	mu    sync.Mutex
	bases map[int]pager.Store // shard store id → base store, unwrapped
}

func newBenchEnv(dir string, tr *tracer) (*benchEnv, error) {
	de, err := shard.NewDirEnv(dir, 0)
	if err != nil {
		return nil, err
	}
	return &benchEnv{dir: de, tr: tr, bases: make(map[int]pager.Store)}, nil
}

// OpenMedia implements shard.Env.
func (e *benchEnv) OpenMedia(name string) (shard.Media, error) {
	m, err := e.dir.OpenMedia(name)
	if err != nil {
		return m, err
	}
	var id int
	if _, err := fmt.Sscanf(name, "shard-%d", &id); err != nil {
		return m, nil // the manifest
	}
	e.mu.Lock()
	e.bases[id] = m.Base
	e.mu.Unlock()
	if e.tr == nil {
		return m, nil
	}
	base, err := wrapStore(m.Base, e.tr, id, fileKinds)
	if err != nil {
		if c, ok := m.Base.(io.Closer); ok {
			err = errors.Join(err, c.Close())
		}
		return shard.Media{}, errors.Join(err, m.Log.Close())
	}
	return shard.Media{Base: base, Log: &logSpy{inner: m.Log, tr: e.tr, media: id}}, nil
}

// DropMedia implements shard.Env.
func (e *benchEnv) DropMedia(name string) error { return e.dir.DropMedia(name) }

// shards returns how many shard stores have been opened.
func (e *benchEnv) shards() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.bases)
}

// baseReads sums the page reads that reached the shards' base stores.
func (e *benchEnv) baseReads() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, s := range e.bases {
		n += s.Stats().Reads
	}
	return n
}

// bandContents returns what each of the bands shards must hold for the
// motions ms: every motion replicated to the bands Partitioner.Assign
// names, sorted the way Shard.Motions enumerates.
func bandContents(part *shard.Partitioner, ms []dual.Motion) [][]dual.Motion {
	out := make([][]dual.Motion, part.N())
	for _, m := range ms {
		for _, b := range part.Assign(m) {
			out[b] = append(out[b], m)
		}
	}
	for _, band := range out {
		sort.Slice(band, func(i, j int) bool {
			a, b := band[i], band[j]
			if a.OID != b.OID {
				return a.OID < b.OID
			}
			if a.T0 != b.T0 {
				return a.T0 < b.T0
			}
			if a.Y0 != b.Y0 {
				return a.Y0 < b.Y0
			}
			return a.V < b.V
		})
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
