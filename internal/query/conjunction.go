package query

import (
	"context"
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// This file implements the paper's Section 5 conjunction queries:
// "find all p with r1(p, q1) and r2(p, q2)" for two reference objects.
//
// Processing order, as the paper prescribes:
//
//  1. Examine the relation between the reference objects. If it lies
//     in the Table 4 entry for (r1, r2) — the complement of the
//     composition r1˘ ∘ r2 — the result is provably empty and no disk
//     access happens.
//  2. Otherwise retrieve ONE of the two relations through the index,
//     choosing the cheaper side: the cost group of the relation first
//     (equal/covers/contains cheapest, disjoint most expensive), the
//     size of the reference MBR as tie-breaker (retrieval cost grows
//     with the data size).
//  3. Filter the retrieved candidates against the other reference in
//     main memory (their MBR configuration must be admissible for the
//     other relation), then refine both predicates with exact geometry.

// CostGroup returns the paper's retrieval cost group of a relation:
// 0 for {equal, covers, contains} (cheapest), 1 for {meet, overlap,
// inside, covered_by}, 2 for {disjoint} (serial-scan territory).
func CostGroup(r topo.Relation) int {
	switch r {
	case topo.Equal, topo.Covers, topo.Contains:
		return 0
	case topo.Disjoint:
		return 2
	default:
		return 1
	}
}

// QueryConjunction answers r1(p, q1) ∧ r2(p, q2).
func (p *Processor) QueryConjunction(r1 topo.Relation, q1 geom.Region, r2 topo.Relation, q2 geom.Region) (Result, error) {
	return p.QueryConjunctionCtx(context.Background(), r1, q1, r2, q2)
}

// QueryConjunctionCtx is QueryConjunction with context cancellation.
func (p *Processor) QueryConjunctionCtx(ctx context.Context, r1 topo.Relation, q1 geom.Region, r2 topo.Relation, q2 geom.Region) (Result, error) {
	if p.Objects == nil {
		return Result{}, fmt.Errorf("query: conjunction needs an ObjectStore for refinement")
	}
	if q1 == nil || q2 == nil {
		return Result{}, fmt.Errorf("query: nil reference region")
	}
	if err := q1.Validate(); err != nil {
		return Result{}, fmt.Errorf("query: reference q1: %w", err)
	}
	if err := q2.Validate(); err != nil {
		return Result{}, fmt.Errorf("query: reference q2: %w", err)
	}

	// Step 1: semantic optimisation via the composition table.
	refRel := geom.RelateRegions(q1, q2)
	if !topo.ConsistentConjunction(r1, r2, refRel) {
		return Result{Stats: Stats{ShortCircuited: true}}, nil
	}

	// Step 2: pick the cheaper side for the index retrieval. With
	// node-MBR statistics available, the planner's selectivity
	// estimates decide; otherwise the paper's static CostGroup rule.
	plan := planConjunction(PlannerFor(p.Idx),
		topo.NewSet(r1), q1.Bounds(), topo.NewSet(r2), q2.Bounds())
	first, firstRef, second, secondRef := r1, q1, r2, q2
	if plan.retrieveSecond {
		first, firstRef, second, secondRef = r2, q2, r1, q1
	}

	// Filter through the index on the first relation.
	firstMBR := firstRef.Bounds()
	matches, stats, err := p.filter(ctx, p.planFor(topo.NewSet(first)), firstMBR)
	if err != nil {
		return Result{}, err
	}
	stats.Reordered = plan.reordered
	stats.Explain = appendActual(plan.explain, stats.Candidates)

	// Step 3: in-memory MBR filter against the second reference, then
	// exact refinement of both predicates.
	secondMBR := secondRef.Bounds()
	secondCands := p.candidateConfigs(topo.NewSet(second))
	var out []Match
	for _, m := range matches {
		if !secondCands.Has(mbr.ConfigOf(m.Rect, secondMBR)) {
			continue
		}
		obj, ok := p.Objects.Object(m.OID)
		if !ok {
			return Result{}, fmt.Errorf("query: refinement needs object %d, not in store", m.OID)
		}
		stats.RefinementTests++
		if geom.RelateRegions(obj, firstRef) == first && geom.RelateRegions(obj, secondRef) == second {
			out = append(out, m)
		} else {
			stats.FalseHits++
		}
	}
	return Result{Matches: out, Stats: stats}, nil
}

// swapConjunction reports whether the second relation should be the
// one retrieved through the index.
func swapConjunction(r1 topo.Relation, q1 geom.Region, r2 topo.Relation, q2 geom.Region) bool {
	g1, g2 := CostGroup(r1), CostGroup(r2)
	if g1 != g2 {
		return g2 < g1
	}
	// Same group: prefer the smaller reference MBR (the paper: "if the
	// sizes of the reference MBRs are considerably different, then the
	// smallest reference MBR must be selected").
	return q2.Bounds().Area() < q1.Bounds().Area()
}
