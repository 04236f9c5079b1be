package query

import (
	"context"
	"fmt"

	"mbrtopo/internal/direction"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// QueryDirection finds all stored rectangles standing in the given
// direction relation to the reference MBR. Direction relations are
// defined on the MBRs themselves (the companion-paper machinery), so
// the filter step is exact and no geometric refinement runs; in
// NonCrisp mode the candidate set is widened by the usual 2-degree
// neighbourhoods and results become conservative (a superset).
func (p *Processor) QueryDirection(rel direction.Relation, refMBR geom.Rect) (Result, error) {
	return p.QueryDirectionCtx(context.Background(), rel, refMBR)
}

// QueryDirectionCtx is QueryDirection with context cancellation.
func (p *Processor) QueryDirectionCtx(ctx context.Context, rel direction.Relation, refMBR geom.Rect) (Result, error) {
	if !rel.Valid() {
		return Result{}, fmt.Errorf("query: invalid direction relation %v", rel)
	}
	if !refMBR.Valid() {
		return Result{}, fmt.Errorf("query: degenerate reference MBR %v", refMBR)
	}
	cands := direction.Candidates(rel)
	if p.NonCrisp {
		cands = mbr.Expand2(cands)
	}
	matches, stats, err := p.filter(ctx, newFilterPlan(cands), refMBR)
	if err != nil {
		return Result{}, err
	}
	stats.DirectAccepts = stats.Candidates
	return Result{Matches: matches, Stats: stats}, nil
}
