package server

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/graph"
	"graphmat/internal/snap"
	"graphmat/internal/sparse"
)

// Persistence glue for the registry: when the server runs with a data
// directory, every graph entry gets a persister that makes its state durable
// and its restart instant.
//
//   - Each accepted update batch is appended (and fsynced) to a per-graph
//     write-ahead log BEFORE any in-memory state advances, so an acknowledged
//     batch survives a crash at any later point.
//   - A checkpoint captures the whole entry at one tag — the raw master,
//     folded so its base is the whole edge set, plus one image per built
//     store, whichever algorithms are bound to it — as GMATSNAP files,
//     rotates the WAL, and atomically flips the CURRENT manifest. Checkpoints
//     ride on the stores' own compaction cadence (the OnCompact hook marks
//     the entry dirty; the update batch that compacted pays for the
//     rotation), so WAL length stays proportional to the un-compacted
//     overlay.
//   - The manifest keeps one "algo:<name>" entry per bound algorithm; the
//     entries of one store key all name its file, store-<key>-<tag>.snap.
//     A directory written when every algorithm had its own image names one
//     inst-<algo>-<tag>.snap file per algorithm instead: boot opens the
//     key's highest-tagged one for the shared store, and the next
//     checkpoint rewrites the directory in the store layout.
//   - Boot mmaps the manifest's snapshot files and serves queries over
//     zero-copy views of the mappings, replaying WAL records newer than each
//     component's tag. A damaged current generation falls back to the
//     previous one (kept one level deep) plus both generations' logs, then
//     re-checkpoints to heal.

// Component keys in the manifest's Files map.
const (
	compMaster    = "master"
	algoCompPfx   = "algo:"
	masterFilePfx = "master-"
	storeFilePfx  = "store-"
	// instFilePfx starts the per-algorithm image files of the layout before
	// stores were shared; boot reads them and garbage collection removes them.
	instFilePfx = "inst-"
	walFilePfx  = "wal-"
)

func masterFileName(tag uint64) string { return fmt.Sprintf("%s%d.snap", masterFilePfx, tag) }
func storeFileName(key algorithms.StoreKey, tag uint64) string {
	return fmt.Sprintf("%s%s-%d.snap", storeFilePfx, key, tag)
}
func walFileName(tag uint64) string { return fmt.Sprintf("%s%d.log", walFilePfx, tag) }

// persister owns one graph entry's persistence directory.
type persister struct {
	dir string

	// mu serializes manifest flips and WAL handle swaps. WAL appends happen
	// under the entry's updMu (the append order must be the batch order);
	// checkpoint and persistBinding also hold updMu, so mu is really
	// guarding against stats readers.
	mu  sync.Mutex
	wal *snap.WAL
	man *snap.Manifest

	// closed is set when the graph is deleted (remove): every later write is
	// refused, so a deleted entry cannot write into the directory a
	// re-registration of its name creates. Set under updMu and mu.
	closed bool

	// maps holds every snapshot mapping opened at boot, for the entry's
	// lifetime: the entry's current state may reference mapped arrays until
	// the first compaction folds them onto the heap, and pinned older epochs
	// may reference them indefinitely. A deleted entry closes them once no
	// request reads it (GraphEntry.unmapIfIdle). Guarded by mu after boot.
	maps []*snap.Snapshot

	// dirty is set by the stores' OnCompact hooks (markDirty): some store
	// folded its overlay, so the WAL now contains records the next checkpoint should
	// retire. The update batch that observes it pays for the checkpoint.
	dirty atomic.Bool

	checkpoints    atomic.Int64
	checkpointErrs atomic.Int64

	// Boot provenance, fixed after load.
	boot            string // "created", "snapshot", "snapshot+wal" or "fallback"
	replayedBatches int64
	replayedRecords int64
}

// newPersister creates (or adopts) the graph's persistence directory.
func newPersister(dir string) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &persister{dir: dir}, nil
}

// errDeleted is the error of every write of a deleted graph's persister.
var errDeleted = fmt.Errorf("%w: the graph was deleted", ErrGraphNotFound)

// remove retires a deleted graph's persistence: the log is closed, every
// later write is refused and the directory is removed. The mappings stay
// open: runs in flight may still read them, and a mapping outlives its
// unlinked file; unmap closes them once none does. Caller holds the entry's
// updMu.
func (p *persister) remove() error {
	p.mu.Lock()
	p.closed = true
	if p.wal != nil {
		p.wal.Close()
		p.wal = nil
	}
	p.mu.Unlock()
	if err := os.RemoveAll(p.dir); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// unmap closes the boot mappings: the entry was deleted and nothing reads
// them any more. Later calls find none.
func (p *persister) unmap() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.maps {
		m.Close()
	}
	p.maps = nil
}

func (p *persister) closeAll() {
	for _, m := range p.maps {
		m.Close()
	}
	p.maps = nil
	if p.wal != nil {
		p.wal.Close()
		p.wal = nil
	}
}

// logBatch appends one accepted batch to the WAL and fsyncs. epoch is the
// entry epoch the batch PRODUCES. Called under the entry's updMu, before the
// batch touches any in-memory state: a batch that cannot be made durable is
// rejected whole.
func (p *persister) logBatch(epoch uint64, batch []graphmat.EdgeUpdate) error {
	recs := make([]snap.WALUpdate, len(batch))
	for i, u := range batch {
		recs[i] = snap.WALUpdate{Src: u.Src, Dst: u.Dst, Val: u.Val, Del: u.Del}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errDeleted
	}
	if p.wal == nil {
		return fmt.Errorf("persist: no open WAL for %s", p.dir)
	}
	return p.wal.Append(epoch, recs)
}

// checkpoint captures the whole entry at its current epoch: the master
// (folded first — the one O(|E|) merge a checkpoint adds to the O(|E|) file
// write) and every built store as snapshot files at one tag, a fresh WAL, and
// an atomic manifest flip naming each bound algorithm's store file. Caller
// holds the entry's updMu (no batch can be in flight), so the master and
// every store agree on the edge set. Files of the grandparent generation are
// deleted after the flip; the previous generation stays as the fallback
// target.
func (p *persister) checkpoint(g *GraphEntry) error {
	if p.closed {
		return errDeleted
	}
	adj := g.master.Fold()
	g.verMu.RLock()
	tag, updates := g.epoch, g.updates
	g.verMu.RUnlock()

	files := map[string]string{compMaster: masterFileName(tag)}
	if err := snap.Write(filepath.Join(p.dir, files[compMaster]), masterImage(adj, tag)); err != nil {
		return err
	}
	for _, st := range g.builtStores() {
		if err := p.writeStore(st, tag); err != nil {
			return err
		}
	}
	// A store built since builtStores has no file yet: the persistBinding
	// that follows its build captures it.
	g.eachBound(func(algo string, st *propStore) {
		if st.file != "" {
			files[algoCompPfx+algo] = st.file
		}
	})
	walName := walFileName(tag)
	nw, err := snap.CreateWAL(filepath.Join(p.dir, walName))
	if err != nil {
		return err
	}

	p.mu.Lock()
	// The new generation keeps one previous generation, as the stored
	// manifest does, so collectGarbage deletes everything older.
	man := &snap.Manifest{Tag: tag, Updates: updates, Files: files, WAL: walName}
	if p.man != nil {
		prev := *p.man
		prev.Prev = nil
		man.Prev = &prev
	}
	if err := snap.WriteManifest(p.dir, man); err != nil {
		p.mu.Unlock()
		nw.Close()
		return err
	}
	if p.wal != nil {
		p.wal.Close()
	}
	p.wal = nw
	p.man = man
	p.mu.Unlock()

	p.checkpoints.Add(1)
	p.dirty.Store(false)
	p.collectGarbage(man)
	return nil
}

// writeStore writes st's image at tag and makes it the store's file.
// Caller holds the entry's updMu.
func (p *persister) writeStore(st *propStore, tag uint64) error {
	img, err := st.SnapImage(tag)
	if err != nil {
		return fmt.Errorf("persist: imaging the %s store: %w", st.Key(), err)
	}
	name := storeFileName(st.Key(), tag)
	if err := snap.Write(filepath.Join(p.dir, name), img); err != nil {
		return err
	}
	st.file = name
	return nil
}

// persistBinding captures one new binding into the current generation
// without a full checkpoint. The binding of a store with no file yet — one
// just built — writes the store's image at the entry's current epoch; the
// binding of a store already persisted writes nothing. Either way the
// manifest is re-flipped with the algorithm's entry naming the store's file
// (same tag, same WAL). On boot, WAL records at or below the file's own tag
// are skipped for the store — the build already contained them. Caller
// holds the entry's updMu.
func (p *persister) persistBinding(g *GraphEntry, algo string, st *propStore) error {
	if p.closed {
		return errDeleted
	}
	if st.file == "" {
		if err := p.writeStore(st, g.Epoch()); err != nil {
			return err
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.man == nil {
		return fmt.Errorf("persist: no manifest for %s", p.dir)
	}
	man := *p.man
	man.Files = make(map[string]string, len(p.man.Files)+1)
	for k, v := range p.man.Files {
		man.Files[k] = v
	}
	man.Files[algoCompPfx+algo] = st.file
	if err := snap.WriteManifest(p.dir, &man); err != nil {
		return err
	}
	p.man = &man
	return nil
}

// collectGarbage removes snapshot and WAL files no longer referenced by the
// manifest chain (current + one previous generation). Mapped files stay
// readable after unlink — the mapping pins the inode — so this is safe even
// while older epochs are still pinned.
func (p *persister) collectGarbage(man *snap.Manifest) {
	keep := map[string]bool{snap.CurrentFile: true}
	for m := man; m != nil; m = m.Prev {
		for _, f := range m.Files {
			keep[f] = true
		}
		keep[m.WAL] = true
	}
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if keep[name] || e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, masterFilePfx) || strings.HasPrefix(name, storeFilePfx) ||
			strings.HasPrefix(name, instFilePfx) || strings.HasPrefix(name, walFilePfx) {
			os.Remove(filepath.Join(p.dir, name))
		}
	}
}

// maybeCheckpoint runs a checkpoint if a store compacted since the last
// one. Called at the tail of ApplyEdges under updMu; a failed checkpoint
// leaves dirty set (the next batch retries) and is surfaced in stats, not as
// a request error — the batch itself is already durable in the WAL.
func (p *persister) maybeCheckpoint(g *GraphEntry) {
	if !p.dirty.Load() {
		return
	}
	if err := p.checkpoint(g); err != nil {
		p.checkpointErrs.Add(1)
	}
}

// markDirty is every persisted store's OnCompact hook.
func (p *persister) markDirty(uint64) { p.dirty.Store(true) }

// masterImage wraps the raw master's folded base as a snapshot image
// (Directions 0: dims and row-major triples only).
func masterImage(adj *sparse.COO[float32], tag uint64) *snap.Image {
	return &snap.Image{
		Epoch:  tag,
		Tag:    tag,
		NRows:  adj.NRows,
		NCols:  adj.NCols,
		NEdges: uint64(len(adj.Entries)),
		Fwd:    adj.Entries,
	}
}

// initPersist attaches a fresh persister to a newly registered entry and
// writes its first generation (master only; stores are captured as they are
// built). Called before the entry is published.
func (r *Registry) initPersist(entry *GraphEntry) error {
	p, err := newPersister(filepath.Join(r.dataDir, entry.name))
	if err != nil {
		return err
	}
	entry.pers = p
	p.boot = "created"
	if err := p.checkpoint(entry); err != nil {
		entry.pers = nil
		p.closeAll()
		return err
	}
	return nil
}

// openPersisted boots an entry from its persistence directory: the current
// generation's mmap'd snapshots plus WAL replay, falling back to the
// previous generation (replaying both logs) if the current one is damaged.
func (r *Registry) openPersisted(name, source, dir string) (*GraphEntry, error) {
	man, err := snap.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	entry, curErr := r.loadGeneration(name, source, dir, man, []string{man.WAL}, man.WAL)
	if curErr == nil {
		return entry, nil
	}
	if man.Prev == nil {
		return nil, curErr
	}
	entry, prevErr := r.loadGeneration(name, source, dir, man.Prev, []string{man.Prev.WAL, man.WAL}, man.WAL)
	if prevErr != nil {
		return nil, fmt.Errorf("current generation: %v; previous generation: %w", curErr, prevErr)
	}
	// Heal: the damaged generation is replaced by a fresh checkpoint of the
	// recovered state, so the next boot takes the fast path again.
	entry.pers.boot = "fallback"
	if err := entry.pers.checkpoint(entry); err != nil {
		entry.pers.checkpointErrs.Add(1)
	}
	return entry, nil
}

// loadGeneration assembles an entry from one generation's snapshot files and
// replays the listed WALs in order. appendWAL names the log opened for
// subsequent appends (its torn tail, if any, is truncated); the others are
// read-only. Per component, only records newer than the component's own tag
// are applied — a store persisted after later batches already contains
// them.
func (r *Registry) loadGeneration(name, source, dir string, gen *snap.Manifest, walNames []string, appendWAL string) (entry *GraphEntry, err error) {
	p := &persister{dir: dir, man: gen}
	defer func() {
		if err != nil {
			p.closeAll()
		}
	}()

	masterName, ok := gen.Files[compMaster]
	if !ok {
		return nil, fmt.Errorf("persist: manifest generation %d has no master snapshot", gen.Tag)
	}
	mf, err := snap.Open(filepath.Join(dir, masterName))
	if err != nil {
		return nil, err
	}
	p.maps = append(p.maps, mf)
	mimg := mf.Image()
	if mimg.Directions != 0 {
		return nil, fmt.Errorf("persist: %s is not a raw adjacency image", masterName)
	}
	entry = &GraphEntry{
		name:       name,
		source:     source,
		partitions: r.partitions,
		workers:    r.workers,
		master:     graph.NewMaster(&sparse.COO[float32]{NRows: mimg.NRows, NCols: mimg.NCols, Entries: mimg.Fwd}),
		epoch:      gen.Tag,
		updates:    gen.Updates,
		insts:      make(map[string]*algoInstance),
		stores:     make(map[algorithms.StoreKey]*propStore),
		pers:       p,
	}

	// The algorithms by store key, each key with the distinct files its
	// entries name: one in the store layout, one per algorithm in the
	// layout before it.
	algos := make(map[algorithms.StoreKey][]algorithms.Spec)
	files := make(map[algorithms.StoreKey][]string)
	for _, comp := range slices.Sorted(maps.Keys(gen.Files)) {
		algo, isAlgo := strings.CutPrefix(comp, algoCompPfx)
		if !isAlgo {
			continue
		}
		spec, known := algorithms.Lookup(algo)
		if !known {
			continue // an algorithm this build no longer registers; rebuild lazily
		}
		algos[spec.Key] = append(algos[spec.Key], spec)
		if file := gen.Files[comp]; !slices.Contains(files[spec.Key], file) {
			files[spec.Key] = append(files[spec.Key], file)
		}
	}
	tags := make(map[*propStore]uint64)
	for key, specs := range algos {
		img, file, err := p.openNewest(files[key])
		if err != nil {
			return nil, err
		}
		store, err := algorithms.OpenStore(key, img)
		if err != nil {
			return nil, fmt.Errorf("persist: opening the %s store from %s: %w", key, file, err)
		}
		st := &propStore{Store: store, file: file}
		for _, spec := range specs {
			inst, err := spec.Bind(store)
			if err != nil {
				return nil, fmt.Errorf("persist: binding %s to the %s store: %w", spec.Name, key, err)
			}
			entry.insts[spec.Name] = &algoInstance{spec: spec, inst: inst, store: st}
		}
		entry.stores[key] = st
		tags[st] = img.Tag
	}

	for _, wn := range walNames {
		var batches []snap.WALBatch
		if wn == appendWAL {
			w, bs, werr := snap.OpenWAL(filepath.Join(dir, wn))
			if werr != nil {
				return nil, werr
			}
			p.wal = w
			batches = bs
		} else {
			var rerr error
			batches, rerr = snap.ReadWAL(filepath.Join(dir, wn))
			if rerr != nil {
				return nil, rerr
			}
		}
		for _, b := range batches {
			if b.Epoch <= entry.epoch {
				continue // already folded into the snapshots (or the other log)
			}
			if err := replayBatch(entry, tags, b); err != nil {
				return nil, err
			}
			p.replayedBatches++
			p.replayedRecords += int64(len(b.Updates))
		}
	}

	for _, st := range entry.stores {
		st.OnCompact(p.markDirty)
	}
	if p.replayedBatches > 0 {
		p.boot = "snapshot+wal"
	} else {
		p.boot = "snapshot"
	}
	return entry, nil
}

// openNewest opens the snapshot files one store key's manifest entries name
// and returns the image of the one with the highest tag, and its name,
// closing the others. A key names one file, unless the directory was written
// when every algorithm had its own image: then the newest image holds the
// most batches, and WAL replay brings it to the entry's epoch.
func (p *persister) openNewest(files []string) (*snap.Image, string, error) {
	var newest *snap.Snapshot
	var name string
	for _, file := range files {
		sf, err := snap.Open(filepath.Join(p.dir, file))
		if err != nil {
			if newest != nil {
				newest.Close()
			}
			return nil, "", err
		}
		if newest == nil || sf.Image().Tag > newest.Image().Tag {
			sf, newest, name = newest, sf, file
		}
		if sf != nil {
			sf.Close()
		}
	}
	p.maps = append(p.maps, newest)
	return newest.Image(), name, nil
}

// replayBatch re-applies one logged batch during boot: into the master's
// overlay, then once into each store whose snapshot predates the batch.
// The entry is unpublished, so no locking.
func replayBatch(entry *GraphEntry, tags map[*propStore]uint64, b snap.WALBatch) error {
	batch := make([]graphmat.EdgeUpdate, len(b.Updates))
	for i, u := range b.Updates {
		batch[i] = graphmat.EdgeUpdate{Src: u.Src, Dst: u.Dst, Val: u.Val, Del: u.Del}
	}
	if err := entry.master.Apply(batch); err != nil {
		return fmt.Errorf("persist: replaying WAL batch for epoch %d: %w", b.Epoch, err)
	}
	for st, tag := range tags {
		if b.Epoch <= tag {
			continue
		}
		if _, err := st.ApplyUpdates(batch, entry.master.Lookup); err != nil {
			return fmt.Errorf("persist: replaying WAL batch for epoch %d into the %s store: %w", b.Epoch, st.Key(), err)
		}
	}
	entry.epoch = b.Epoch
	entry.updates += int64(len(batch))
	return nil
}

// PersistStats is the /stats view of one graph's persistence state.
type PersistStats struct {
	// Enabled reports whether the entry has a persistence directory.
	Enabled bool `json:"enabled"`
	// Boot records how the entry came up: "created" (parsed and
	// checkpointed this process), "snapshot" (mmap'd, no WAL records),
	// "snapshot+wal" (mmap'd plus replay) or "fallback" (previous
	// generation healed).
	Boot string `json:"boot,omitempty"`
	// Tag is the current generation's checkpoint epoch.
	Tag uint64 `json:"tag"`
	// Checkpoints counts generation flips this process performed;
	// CheckpointErrors the capture attempts that failed (state stays
	// recoverable through the WAL either way).
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointErrors int64 `json:"checkpoint_errors,omitempty"`
	// WALBatches / WALRecords count what the open log currently holds
	// (appended plus replayed-and-kept).
	WALBatches int64 `json:"wal_batches"`
	WALRecords int64 `json:"wal_records"`
	// ReplayedBatches / ReplayedRecords count boot-time WAL replay.
	ReplayedBatches int64 `json:"replayed_batches,omitempty"`
	ReplayedRecords int64 `json:"replayed_records,omitempty"`
}

// PersistStats reports the entry's persistence counters; zero-value when the
// server runs without a data directory.
func (g *GraphEntry) PersistStats() PersistStats {
	p := g.pers
	if p == nil {
		return PersistStats{}
	}
	p.mu.Lock()
	var tag uint64
	if p.man != nil {
		tag = p.man.Tag
	}
	var wb, wr int64
	if p.wal != nil {
		wb, wr = p.wal.Batches(), p.wal.Records()
	}
	p.mu.Unlock()
	return PersistStats{
		Enabled:          true,
		Boot:             p.boot,
		Tag:              tag,
		Checkpoints:      p.checkpoints.Load(),
		CheckpointErrors: p.checkpointErrs.Load(),
		WALBatches:       wb,
		WALRecords:       wr,
		ReplayedBatches:  p.replayedBatches,
		ReplayedRecords:  p.replayedRecords,
	}
}
