package server

import (
	"errors"
	"fmt"

	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
)

// errNotLogged marks a commit that reached the tree but whose WAL flush
// failed: the mutation is applied yet not durable.
var errNotLogged = errors.New("mutation applied but not logged")

// commit is the one write path: single inserts and deletes, bulk
// batches (bulk: recs are inserts applied as one atomic InsertBatch),
// and replicated records all go through it, in this order:
//
//  1. take the instance's writer lock (commitMu) and run inSync, the
//     caller's precondition, when given;
//  2. demote a flat-booted read view to the working tree;
//  3. apply recs to the tree;
//  4. reserve recs on the WAL (an in-memory instance has no log);
//  5. count them toward the automatic checkpoint;
//  6. unlock, so the next writer applies while this one flushes;
//  7. wait for the flush;
//  8. publish recs to the watch table, once every earlier commit has;
//  9. bump the cache generation;
//  10. wake replication streamers.
//
// Subscribers therefore only hear about durable mutations, and in
// reservation order even when several flushes finish together. A
// commit whose flush fails publishes nothing, bumps nothing, and
// leaves the instance unhealthy.
func (inst *Instance) commit(recs []wal.Record, bulk bool, inSync func() error) error {
	d := inst.dur
	inst.commitMu.Lock()
	err := inst.applyLocked(recs, bulk, inSync)
	if err != nil {
		inst.commitMu.Unlock()
		return err
	}
	var ticket *wal.Ticket
	var cpErr error
	if d != nil {
		ticket = d.log.Reserve(recs...)
		if d.metrics != nil {
			d.metrics.walRecords.Add(uint64(len(recs)))
		}
		d.since += len(recs)
		if d.every > 0 && d.since >= d.every {
			// Closing the old generation flushes every reservation
			// still pending on it, this one included.
			cpErr = d.checkpoint(inst.Idx)
		}
	}
	prev, published := inst.lastPublish, make(chan struct{})
	inst.lastPublish = published
	inst.commitMu.Unlock()

	var flushErr error
	if ticket != nil {
		flushErr = ticket.Wait()
	}
	if prev != nil {
		<-prev
	}
	if flushErr == nil && inst.watchActive() {
		muts := make([]watch.Mutation, len(recs))
		for i, rec := range recs {
			op := watch.OpInsert
			if rec.Op == wal.OpDelete {
				op = watch.OpDelete
			}
			muts[i] = watch.Mutation{Op: op, OID: rec.OID, Rect: rec.Rect}
		}
		inst.watch.Publish(muts...)
	}
	close(published)
	if flushErr != nil {
		inst.MarkUnhealthy("wal append failed: " + flushErr.Error())
		return fmt.Errorf("server: %w: %w", errNotLogged, flushErr)
	}
	inst.bumpGen()
	if d != nil {
		d.signal()
	}
	if cpErr != nil {
		// A failed checkpoint leaves a log that can only grow.
		inst.MarkUnhealthy("checkpoint failed: " + cpErr.Error())
		return fmt.Errorf("server: mutation logged but checkpoint failed: %w", cpErr)
	}
	return nil
}

// applyLocked is steps 1–3 of commit. Caller holds commitMu.
func (inst *Instance) applyLocked(recs []wal.Record, bulk bool, inSync func() error) error {
	if inSync != nil {
		if err := inSync(); err != nil {
			return err
		}
	}
	if err := inst.demoteLocked(); err != nil {
		return err
	}
	if !bulk {
		return applyRecord(inst.Idx, recs[0])
	}
	batch := make([]rtree.Record, len(recs))
	for i, rec := range recs {
		batch[i] = rtree.Record{Rect: rec.Rect, OID: rec.OID}
	}
	return inst.Idx.InsertBatch(batch)
}

// applyRecord applies one logged mutation to a tree: the op dispatch
// shared by commit and WAL recovery replay.
func applyRecord(idx index.Index, rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		return idx.Insert(rec.Rect, rec.OID)
	case wal.OpDelete:
		return idx.Delete(rec.Rect, rec.OID)
	}
	return fmt.Errorf("server: unknown mutation op %v", rec.Op)
}

// demoteLocked switches a flat-booted instance's read path over to the
// paged working tree before the first mutation is applied: the flat
// snapshot is immutable and would silently go stale. The caller holds
// commitMu, which the background reconstruction held for its whole
// run, so the working tree (when reconstruction succeeded) is complete
// and identical to the flat snapshot here. No-op for instances already
// reading from the working tree.
func (inst *Instance) demoteLocked() error {
	v := inst.view.Load()
	if v == nil || v.idx == inst.Idx {
		return nil
	}
	if inst.Idx == nil {
		return fmt.Errorf("server: index %q has no working tree (reconstruction failed: %s)",
			inst.Name, inst.FailReason())
	}
	inst.Proc = &query.Processor{Idx: inst.Idx}
	inst.view.Store(&readView{idx: inst.Idx, proc: inst.Proc, pool: inst.Pool})
	return nil
}
