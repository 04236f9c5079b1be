package query

import (
	"context"
	"fmt"
	"iter"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// This file is the streaming face of the 4-step strategy: instead of
// materialising a Result, matches are delivered one by one, and the
// traversal stops as soon as the consumer has seen enough. Streaming
// queries run the filter step only (like QueryMBR) — refinement needs
// the full candidate set ordering, so geometric queries keep the batch
// API.

// Stream runs the filter step for a disjunctive relation set against a
// reference MBR, calling yield for each distinct candidate as the
// traversal finds it (tree order, not OID order). Returning false from
// yield stops the traversal immediately; limit > 0 additionally caps
// the number of matches delivered. The returned Stats cover exactly
// the pages this traversal read before it stopped.
//
// On cancellation Stream returns ctx.Err() together with the stats
// accumulated so far.
func (p *Processor) Stream(ctx context.Context, rels topo.Set, refMBR geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	if rels.IsEmpty() {
		return Stats{}, fmt.Errorf("query: empty relation set")
	}
	if !refMBR.Valid() {
		return Stats{}, fmt.Errorf("query: degenerate reference MBR %v", refMBR)
	}
	stats, err := p.streamConfigs(ctx, p.planFor(rels), refMBR, limit, yield)
	if err != nil {
		return stats, fmt.Errorf("query: stream: %w", err)
	}
	return stats, nil
}

// StreamConfigs streams the filter step for an explicit admissible
// configuration set (e.g. a direction relation's candidates, which are
// exact on MBRs, so streamed matches are final answers). Its plan is
// derived live on every call.
func (p *Processor) StreamConfigs(ctx context.Context, cands mbr.ConfigSet, refMBR geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	if !refMBR.Valid() {
		return Stats{}, fmt.Errorf("query: degenerate reference MBR %v", refMBR)
	}
	stats, err := p.streamConfigs(ctx, newFilterPlan(cands), refMBR, limit, yield)
	if err != nil {
		return stats, fmt.Errorf("query: stream: %w", err)
	}
	return stats, nil
}

// streamConfigs is the one traversal of steps 2 and 3 behind every
// filter-step entry point. Only an index whose node rectangles do not
// cover their entries (R+ clipping) can emit one object several
// times, so only there is a dedup set kept.
func (p *Processor) streamConfigs(ctx context.Context, pl *filterPlan, refMBR geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	nodePred, leafPred := p.filterPreds(pl, refMBR)
	var seen map[uint64]struct{}
	if !p.Idx.CoveringNodeRects() {
		seen = make(map[uint64]struct{})
	}
	emitted := 0
	ts, err := p.Idx.SearchCtx(ctx, nodePred, leafPred, func(r geom.Rect, oid uint64) bool {
		if seen != nil {
			if _, ok := seen[oid]; ok {
				return true
			}
			seen[oid] = struct{}{}
		}
		if !yield(Match{OID: oid, Rect: r}) {
			return false
		}
		emitted++
		return limit <= 0 || emitted < limit
	})
	return Stats{NodeAccesses: ts.NodeAccesses, Candidates: emitted}, err
}

// Matches returns the streaming filter step as an iterator, for
// range-over-func consumers:
//
//	for m, err := range p.Matches(ctx, rels, refMBR, 0) {
//	    if err != nil { ... }
//	    use(m)
//	}
//
// A non-nil error, if any, is the final pair's second value (with a
// zero Match). Breaking out of the loop stops the traversal.
func (p *Processor) Matches(ctx context.Context, rels topo.Set, refMBR geom.Rect, limit int) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		stopped := false
		_, err := p.Stream(ctx, rels, refMBR, limit, func(m Match) bool {
			if !yield(m, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(Match{}, err)
		}
	}
}

// Cursor is a pull-based view of a streaming query. It runs the
// traversal in a background goroutine with a small buffer; Next blocks
// for the next match. Close releases the goroutine early (it is safe,
// and required, to call Close when abandoning a cursor before
// exhaustion; closing an exhausted cursor is a no-op).
type Cursor struct {
	ch     chan Match
	cancel context.CancelFunc
	done   chan struct{}

	cur   Match
	stats Stats
	err   error
}

// cursorBuffer decouples the producing traversal from the consumer; a
// small constant keeps at most a handful of matches in flight.
const cursorBuffer = 16

// OpenCursor starts a streaming filter-step query and returns a cursor
// over its matches. The traversal runs concurrently with consumption
// and stops when the cursor is closed, the limit is reached, or ctx is
// cancelled.
func (p *Processor) OpenCursor(ctx context.Context, rels topo.Set, refMBR geom.Rect, limit int) *Cursor {
	ctx, cancel := context.WithCancel(ctx)
	c := &Cursor{
		ch:     make(chan Match, cursorBuffer),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		defer close(c.ch)
		stats, err := p.Stream(ctx, rels, refMBR, limit, func(m Match) bool {
			select {
			case c.ch <- m:
				return true
			case <-ctx.Done():
				return false
			}
		})
		c.stats = stats
		if err != nil && ctx.Err() == nil {
			c.err = err
		}
	}()
	return c
}

// Next advances to the next match, reporting false at end of stream
// (exhaustion, error, limit, or Close). After false, Err and Stats are
// final.
func (c *Cursor) Next() bool {
	m, ok := <-c.ch
	if !ok {
		return false
	}
	c.cur = m
	return true
}

// Match returns the match Next advanced to.
func (c *Cursor) Match() Match { return c.cur }

// Err returns the traversal error, if any, once the stream has ended.
// A cursor stopped by Close or context cancellation reports nil.
func (c *Cursor) Err() error {
	<-c.done
	return c.err
}

// Stats returns the traversal statistics; it blocks until the
// producing traversal has finished (call after Next returns false, or
// after Close).
func (c *Cursor) Stats() Stats {
	<-c.done
	return c.stats
}

// Close stops the traversal and releases its goroutine. Safe to call
// multiple times and concurrently with Next.
func (c *Cursor) Close() {
	c.cancel()
	// Drain so the producer is never stuck sending.
	for range c.ch {
	}
	<-c.done
}
