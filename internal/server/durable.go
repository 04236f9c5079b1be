package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/wal"
)

// The durable state of an index named N in a data directory:
//
//	N.snap        checksummed page-file snapshot as of the last
//	              checkpoint (rewritten atomically: tmp + rename)
//	N.wal.<gen>   mutation log since that checkpoint
//	N.pages       working copy the live tree mutates; recreated from
//	              N.snap on every boot, never read during recovery
//	N.flat        read-only flat snapshot of the same checkpoint (only
//	              with IndexSpec.Flat); serves the boot read path
//	              instantly when its generation matches N.snap's and
//	              the WAL is quiet
//
// The snapshot's user metadata stores the tree meta (root/depth/size)
// plus the WAL generation it covers, so a crash between the snapshot
// rename and the old log's removal can never double-apply: the new
// snapshot points at the new (empty or missing ⇒ empty) generation and
// the stale log is simply deleted. Mutations apply to the working copy
// and append to the WAL before the 200 is written; recovery copies the
// snapshot over the working file and replays the log, which tolerates
// a torn tail.
type durable struct {
	// inst is the owning instance; its commitMu guards the fields
	// below.
	inst *Instance
	dir  string
	name string
	kind index.Kind

	disk    *pagefile.DiskFile // working copy under the live tree
	log     *wal.Log
	walOpts wal.Options
	gen     uint64

	every   int  // checkpoint after this many appended records (0 = manual)
	since   int  // records since the last checkpoint
	flat    bool // publish a flat snapshot at every checkpoint
	metrics *Metrics

	// spec keeps the page-file settings so a follower bootstrap can
	// rebuild the working copy from a streamed snapshot.
	spec IndexSpec

	// wake is closed (and replaced) whenever new WAL records become
	// readable or the log rotates, so replication streamers wait on a
	// channel instead of polling the file. Lazily created.
	wake chan struct{}

	// gacc accumulates group-commit counters of retired WAL
	// generations, so /metrics counters never move backwards across a
	// checkpoint rotation.
	gacc wal.GroupStats
}

// groupStats returns cumulative group-commit counters across all WAL
// generations of this index.
func (d *durable) groupStats() wal.GroupStats {
	d.inst.commitMu.Lock()
	defer d.inst.commitMu.Unlock()
	gs := d.gacc
	if d.log != nil {
		cur := d.log.GroupStats()
		gs.Commits += cur.Commits
		gs.Records += cur.Records
		if cur.MaxBatch > gs.MaxBatch {
			gs.MaxBatch = cur.MaxBatch
		}
		gs.CommitTime += cur.CommitTime
	}
	return gs
}

// waitChLocked returns the channel the next signal will close. A
// streamer grabs it BEFORE scanning the WAL, so a record flushed
// between the scan and the wait still wakes it. Caller holds the instance's commitMu.
func (d *durable) waitChLocked() chan struct{} {
	if d.wake == nil {
		d.wake = make(chan struct{})
	}
	return d.wake
}

// signalLocked wakes every streamer parked on the current wake channel
// and installs a fresh one. Caller holds the instance's commitMu.
func (d *durable) signalLocked() {
	if d.wake != nil {
		close(d.wake)
		d.wake = nil
	}
}

// signal is signalLocked for callers outside the lock (commit, once
// its flush has finished).
func (d *durable) signal() {
	d.inst.commitMu.Lock()
	d.signalLocked()
	d.inst.commitMu.Unlock()
}

// position returns the durable position (gen, records since that
// generation's checkpoint). ok is false while the index has no open
// log — recovery failed, or a follower shell not yet bootstrapped.
func (d *durable) position() (gen, seq uint64, ok bool) {
	d.inst.commitMu.Lock()
	defer d.inst.commitMu.Unlock()
	if d.log == nil {
		return 0, 0, false
	}
	return d.gen, uint64(d.since), true
}

func (d *durable) snapPath() string  { return filepath.Join(d.dir, d.name+".snap") }
func (d *durable) workPath() string  { return filepath.Join(d.dir, d.name+".pages") }
func (d *durable) flatPath() string  { return filepath.Join(d.dir, d.name+".flat") }
func (d *durable) statsPath() string { return filepath.Join(d.dir, d.name+".stats") }
func (d *durable) walPath(gen uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("%s.wal.%d", d.name, gen))
}

// metaGen extracts the WAL generation from a snapshot's user metadata
// (bytes 16..24; the tree meta occupies 0..16).
func metaGen(um [pagefile.UserMetaSize]byte) uint64 {
	return binary.LittleEndian.Uint64(um[16:24])
}

// persistMeta writes the tree meta and the WAL generation into the
// working file's header.
func persistMeta(idx index.Index, disk *pagefile.DiskFile, gen uint64) error {
	if err := index.Persist(idx, disk); err != nil {
		return err
	}
	um := disk.UserMeta()
	binary.LittleEndian.PutUint64(um[16:24], gen)
	return disk.SetUserMeta(um)
}

// copyFile copies src over dst (truncating), syncing dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// publishSnapshot atomically replaces the snapshot with the current
// working file: copy to a temp file, fsync, rename, fsync the dir.
func (d *durable) publishSnapshot() error {
	tmp := d.snapPath() + ".tmp"
	if err := copyFile(d.workPath(), tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.snapPath()); err != nil {
		return err
	}
	return syncDir(d.dir)
}

// publishFlat atomically replaces the flat read-only snapshot with the
// current tree state, tagged with the generation of the paged snapshot
// it mirrors: write to a temp file, fsync, rename, fsync the dir.
func (d *durable) publishFlat(idx index.Index, gen uint64) error {
	tmp := d.flatPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := index.WriteFlat(idx, f, gen); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.flatPath()); err != nil {
		return err
	}
	return syncDir(d.dir)
}

// persistStats writes the tree's node-MBR summary next to the
// snapshot (tmp + rename). Best-effort on purpose: the stats file is a
// warm-start cache for the query planner — when it is missing, stale,
// or torn, the tree just recollects on the first Stats() call.
func (d *durable) persistStats(idx index.Index) {
	st, err := index.StatsOf(idx)
	if err != nil || st == nil {
		return
	}
	data, err := rtree.EncodeStats(st)
	if err != nil {
		return
	}
	tmp := d.statsPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, d.statsPath())
}

// loadStats installs the checkpointed summary on a recovered tree, if
// one is present and decodes (otherwise the tree collects lazily).
func (d *durable) loadStats(idx index.Index) {
	data, err := os.ReadFile(d.statsPath())
	if err != nil {
		return
	}
	st, err := rtree.DecodeStats(data)
	if err != nil {
		return
	}
	index.SetStats(idx, st)
}

// walQuiet reports whether a WAL generation holds no records — the
// file is missing or empty (frames start at byte 0, so any content
// means at least a partial record). Only then does the flat snapshot,
// which mirrors the checkpoint rather than the log, equal the durable
// state.
func walQuiet(path string) bool {
	st, err := os.Stat(path)
	if err != nil {
		return errors.Is(err, os.ErrNotExist)
	}
	return st.Size() == 0
}

// removeStaleWALs deletes every WAL generation of this index except
// keep (leftovers of checkpoints cut short by a crash).
func (d *durable) removeStaleWALs(keep uint64) {
	matches, err := filepath.Glob(filepath.Join(d.dir, d.name+".wal.*"))
	if err != nil {
		return
	}
	keepPath := d.walPath(keep)
	for _, m := range matches {
		if m != keepPath {
			_ = os.Remove(m)
		}
	}
}

// checkpoint publishes the current tree state as the new snapshot and
// rotates the WAL to a fresh generation. Caller holds the instance's
// commitMu. The ordering is crash-safe at every step:
//
//  1. working header gets meta + gen+1, working file fsyncs
//  2. snapshot is atomically replaced (tmp, fsync, rename, dir fsync)
//  3. with IndexSpec.Flat, the flat snapshot is replaced the same way,
//     tagged gen+1
//  4. the WAL rotates to generation gen+1; the old log is deleted
//
// A crash before 2 leaves the old (snapshot, WAL gen) pair intact; a
// crash after 2 boots from the new snapshot with an empty gen+1 log
// (created on demand) and deletes the stale old log. A crash between 2
// and 3 leaves a flat file one generation behind the paged snapshot —
// the boot path detects the mismatch and falls back to paged recovery,
// whose next checkpoint republishes both.
func (d *durable) checkpoint(idx index.Index) error {
	next := d.gen + 1
	if err := persistMeta(idx, d.disk, next); err != nil {
		return fmt.Errorf("checkpoint: persisting meta: %w", err)
	}
	if err := d.disk.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing working file: %w", err)
	}
	if err := d.publishSnapshot(); err != nil {
		return fmt.Errorf("checkpoint: publishing snapshot: %w", err)
	}
	if d.flat {
		if err := d.publishFlat(idx, next); err != nil {
			return fmt.Errorf("checkpoint: publishing flat snapshot: %w", err)
		}
	}
	d.persistStats(idx)
	newLog, replayed, err := wal.Open(d.walPath(next), d.walOpts)
	if err != nil {
		return fmt.Errorf("checkpoint: rotating wal: %w", err)
	}
	if len(replayed) != 0 {
		// A fresh generation must be empty; anything else is a stale
		// leftover the snapshot already covers.
		if err := newLog.Truncate(); err != nil {
			newLog.Close()
			return fmt.Errorf("checkpoint: clearing stale wal generation: %w", err)
		}
	}
	old := d.log
	d.log = newLog
	d.gen = next
	d.since = 0
	if old != nil {
		oldPath := old.Path()
		_ = old.Close()
		gs := old.GroupStats()
		d.gacc.Commits += gs.Commits
		d.gacc.Records += gs.Records
		if gs.MaxBatch > d.gacc.MaxBatch {
			d.gacc.MaxBatch = gs.MaxBatch
		}
		d.gacc.CommitTime += gs.CommitTime
		_ = os.Remove(oldPath)
	}
	if d.metrics != nil {
		d.metrics.checkpoints.Add(1)
	}
	// Wake replication streamers: the old generation is final (closing
	// it flushed every reservation) and a new one is open.
	d.signalLocked()
	return nil
}

// WaitReconstructed blocks until a flat-booted instance has finished
// rebuilding its paged working copy in the background (no-op for every
// other boot path). Tests and benchmarks use it to observe the steady
// state; serving code never needs it.
func (inst *Instance) WaitReconstructed() {
	for _, t := range inst.tiles {
		t.WaitReconstructed()
	}
	if inst.dur == nil {
		return
	}
	inst.commitMu.Lock()
	//lint:ignore SA2001 the critical section is the wait itself
	inst.commitMu.Unlock()
}

// Checkpoint forces a checkpoint now (topod runs one on clean
// shutdown so the next boot replays nothing).
func (inst *Instance) Checkpoint() error {
	if len(inst.tiles) > 0 {
		var firstErr error
		for _, t := range inst.tiles {
			if err := t.Checkpoint(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	if inst.dur == nil {
		return nil
	}
	inst.commitMu.Lock()
	defer inst.commitMu.Unlock()
	return inst.dur.checkpoint(inst.Idx)
}

// Close checkpoints (when healthy) and releases the durable files.
func (inst *Instance) Close() error {
	if len(inst.tiles) > 0 {
		var firstErr error
		for _, t := range inst.tiles {
			if err := t.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	if inst.dur == nil {
		return nil
	}
	inst.commitMu.Lock()
	defer inst.commitMu.Unlock()
	var firstErr error
	if inst.Healthy() && inst.Idx != nil {
		firstErr = inst.dur.checkpoint(inst.Idx)
	}
	if inst.dur.log != nil {
		if err := inst.dur.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		inst.dur.log = nil
	}
	if inst.dur.disk != nil {
		if err := inst.dur.disk.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		inst.dur.disk = nil
	}
	return firstErr
}

// openDurable builds or recovers a durable instance. Recovery failures
// do not abort: the instance comes back unhealthy (Idx possibly nil)
// so the server can answer 503 on its routes instead of crashing —
// "degrade, don't serve garbage".
func (s *Server) openDurable(spec IndexSpec, items []index.Item) (*Instance, error) {
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	inst := &Instance{Name: spec.Name, Kind: spec.Kind, Frames: spec.Frames}
	d := &durable{
		inst:    inst,
		dir:     spec.Dir,
		name:    spec.Name,
		kind:    spec.Kind,
		walOpts: wal.Options{Policy: spec.Fsync, Interval: spec.FsyncInterval, WriteHook: spec.WALWriteHook},
		every:   spec.CheckpointEvery,
		flat:    spec.Flat,
		metrics: s.metrics,
		spec:    spec,
	}
	inst.dur = d
	if spec.Follower {
		// A follower shell: no local state yet — everything (snapshot,
		// working copy, WAL) arrives through the replication stream's
		// Bootstrap. Until then the instance has no read view and
		// answers 503.
		inst.backend = "follower"
		d.every = 0 // checkpoints are driven by the primary's rotations
		return inst, nil
	}

	if _, err := os.Stat(d.snapPath()); err == nil {
		if d.flat && s.tryFlatBoot(spec, d, inst) {
			return inst, nil
		}
		s.recoverDurable(spec, d, inst, false)
		return inst, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}

	// Fresh directory: build from items and publish the first
	// snapshot before serving.
	disk, err := pagefile.CreateDiskFile(d.workPath(), spec.PageSize)
	if err != nil {
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	d.disk = disk
	file, pool := wrapFile(disk, spec)
	idx, err := index.NewOnFile(spec.Kind, file)
	if err == nil {
		err = loadItems(idx, items, spec.Bulk)
	}
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	inst.Idx = idx
	inst.Pool = pool
	d.gen = 1
	if err := persistMeta(idx, disk, d.gen); err != nil {
		disk.Close()
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	if err := disk.Sync(); err != nil {
		disk.Close()
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	if err := d.publishSnapshot(); err != nil {
		disk.Close()
		return nil, fmt.Errorf("server: index %q: publishing initial snapshot: %w", spec.Name, err)
	}
	if d.flat {
		if err := d.publishFlat(idx, d.gen); err != nil {
			disk.Close()
			return nil, fmt.Errorf("server: index %q: publishing initial flat snapshot: %w", spec.Name, err)
		}
	}
	d.persistStats(idx)
	log, _, err := wal.Open(d.walPath(d.gen), d.walOpts)
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("server: index %q: opening wal: %w", spec.Name, err)
	}
	d.log = log
	d.removeStaleWALs(d.gen)
	return inst, nil
}

// tryFlatBoot serves the index from the flat snapshot immediately,
// without reading the page area at all, when the flat file provably
// equals the durable state: it decodes and passes its checksums, its
// generation matches the paged snapshot header's, its tree kind
// matches the spec, and the WAL of that generation is quiet (no
// mutations since the checkpoint that published both files). The paged
// working copy is then reconstructed in the background while queries
// are already being answered; the rebuild holds the writer lock for
// its whole run, so mutations, manual checkpoints, and Close queue
// behind it and find the working tree ready. Returns false — leaving
// no state behind — when the flat file is missing, stale, or corrupt,
// and the caller falls back to ordinary paged recovery.
func (s *Server) tryFlatBoot(spec IndexSpec, d *durable, inst *Instance) bool {
	flat, err := index.OpenFlat(d.flatPath())
	if err != nil {
		if errors.Is(err, pagefile.ErrCorrupt) {
			s.metrics.checksumFailures.Add(1)
		}
		return false
	}
	um, err := pagefile.ReadUserMeta(d.snapPath())
	if err != nil {
		return false
	}
	gen := metaGen(um)
	if flat.Generation() != gen || flat.Name() != spec.Kind.String() {
		return false
	}
	if !walQuiet(d.walPath(gen)) {
		return false
	}

	inst.backend = "flat"
	inst.view.Store(&readView{idx: flat, proc: &query.Processor{Idx: flat}})
	inst.commitMu.Lock()
	go func() {
		defer inst.commitMu.Unlock()
		s.recoverDurable(spec, d, inst, true)
	}()
	return true
}

// recoverDurable rebuilds the working state from snapshot + WAL. Any
// failure marks the instance unhealthy instead of returning an error.
// locked reports that the caller (the flat boot's background rebuild)
// already holds inst.commitMu.
func (s *Server) recoverDurable(spec IndexSpec, d *durable, inst *Instance, locked bool) {
	fail := func(reason string) {
		inst.MarkUnhealthy(reason)
		if d.log != nil {
			d.log.Close()
			d.log = nil
		}
		if d.disk != nil {
			d.disk.Close()
			d.disk = nil
		}
		inst.Idx = nil
		inst.Pool = nil
	}

	if err := copyFile(d.snapPath(), d.workPath()); err != nil {
		fail("restoring working copy: " + err.Error())
		return
	}
	disk, err := pagefile.OpenDiskFile(d.workPath())
	if err != nil {
		if errors.Is(err, pagefile.ErrCorrupt) {
			s.metrics.checksumFailures.Add(1)
		}
		fail("opening snapshot: " + err.Error())
		return
	}
	d.disk = disk
	bad, err := disk.Scrub()
	if err != nil {
		fail("scrubbing snapshot: " + err.Error())
		return
	}
	if len(bad) > 0 {
		s.metrics.checksumFailures.Add(uint64(len(bad)))
		fail(fmt.Sprintf("snapshot has %d corrupt pages (first: %d)", len(bad), bad[0]))
		return
	}
	um := disk.UserMeta()
	d.gen = metaGen(um)
	file, pool := wrapFile(disk, spec)
	idx, err := index.Resume(spec.Kind, file, rtree.DecodeMeta(um))
	if err != nil {
		fail("resuming index: " + err.Error())
		return
	}
	// Warm-start the planner from the checkpointed summary; WAL replay
	// below counts against its staleness budget like any mutation.
	d.loadStats(idx)
	inst.Idx = idx
	inst.Pool = pool
	log, recs, err := wal.Open(d.walPath(d.gen), d.walOpts)
	if err != nil {
		fail("opening wal: " + err.Error())
		return
	}
	d.log = log
	d.removeStaleWALs(d.gen)
	for i, rec := range recs {
		if err := applyRecord(idx, rec); err != nil {
			// Replayed records are exactly the mutations that
			// succeeded before the crash, in order, so a replay
			// failure means the snapshot and log disagree.
			fail(fmt.Sprintf("replaying wal record %d/%d (%s oid %d): %v",
				i+1, len(recs), rec.Op, rec.OID, err))
			return
		}
	}
	s.metrics.walReplays.Add(uint64(len(recs)))
	inst.Recovered = true
	inst.Replayed = len(recs)
	if inst.backend == "" {
		inst.backend = "recovered"
	}
	if len(recs) > 0 {
		var err error
		if locked {
			err = d.checkpoint(idx)
		} else {
			inst.commitMu.Lock()
			err = d.checkpoint(idx)
			inst.commitMu.Unlock()
		}
		if err != nil {
			fail("post-recovery checkpoint: " + err.Error())
			return
		}
	}
}

// wrapFile applies the test hook and the buffer pool around the
// working disk file.
func wrapFile(disk *pagefile.DiskFile, spec IndexSpec) (pagefile.File, *pagefile.BufferPool) {
	var file pagefile.File = disk
	if spec.FileWrapper != nil {
		file = spec.FileWrapper(file)
	}
	var pool *pagefile.BufferPool
	if spec.Frames > 0 {
		pool = pagefile.NewBufferPool(file, spec.Frames)
		file = pool
	}
	return file, pool
}
