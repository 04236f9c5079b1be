package query

import (
	"context"
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// StreamConjunction is the streaming (filter-level) face of the
// Section 5 conjunction: find all stored MBRs that are candidates for
// rels1 against ref1 AND candidates for rels2 against ref2. Like
// Stream it never touches exact geometry, so it serves the wire path,
// whose data are rectangles.
//
// The paper's processing order is kept: the composition table first
// (if no (r1, r2) pair is consistent with the relation between the
// two references, the exact result is provably empty and the
// traversal is skipped — candidates of an empty conjunction are pure
// false hits); then ONE side is retrieved through the index — the
// side the planner estimates cheaper, or the static CostGroup choice
// without statistics — and the other side is tested in memory against
// each retrieved candidate (domination pre-test, then the
// configuration probe).
func (p *Processor) StreamConjunction(ctx context.Context, rels1 topo.Set, ref1 geom.Rect, rels2 topo.Set, ref2 geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	if rels1.IsEmpty() || rels2.IsEmpty() {
		return Stats{}, fmt.Errorf("query: empty relation set")
	}
	if !ref1.Valid() || !ref2.Valid() {
		return Stats{}, fmt.Errorf("query: degenerate reference MBR")
	}

	// Step 1: semantic optimisation. The references arrive as MBRs, so
	// their mutual relation is exact (rectangles are their own MBRs).
	refRel := mbr.RelateRects(ref1, ref2)
	consistent := false
scan:
	for _, r1 := range topo.All() {
		if !rels1.Has(r1) {
			continue
		}
		for _, r2 := range topo.All() {
			if rels2.Has(r2) && topo.ConsistentConjunction(r1, r2, refRel) {
				consistent = true
				break scan
			}
		}
	}
	if !consistent {
		return Stats{
			ShortCircuited: true,
			Explain:        fmt.Sprintf("plan=conjunction short-circuit refs=%s", refRel),
		}, nil
	}

	// Step 2: pick the retrieval side.
	plan := planConjunction(PlannerFor(p.Idx), rels1, ref1, rels2, ref2)
	getRels, getRef, memRels, memRef := rels1, ref1, rels2, ref2
	if plan.retrieveSecond {
		getRels, getRef, memRels, memRef = rels2, ref2, rels1, ref1
	}

	// Step 3: traverse on the retrieved side, filter the other side in
	// memory on the way out.
	mem := p.planFor(memRels)
	emitted := 0
	stats, err := p.streamConfigs(ctx, p.planFor(getRels), getRef, 0, func(m Match) bool {
		if !mem.leafDom.Admits(m.Rect, memRef) || !mem.cands.Has(mbr.ConfigOf(m.Rect, memRef)) {
			return true
		}
		if !yield(m) {
			return false
		}
		emitted++
		return limit <= 0 || emitted < limit
	})
	stats.Candidates = emitted
	stats.Reordered = plan.reordered
	stats.Explain = appendActual(plan.explain, emitted)
	if err != nil {
		return stats, fmt.Errorf("query: stream conjunction: %w", err)
	}
	return stats, nil
}
