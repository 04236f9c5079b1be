package query

import (
	"context"
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// LineStore resolves object ids to polylines for line-query
// refinement.
type LineStore map[uint64]geom.PolyLine

// QueryLine finds all stored lines standing in the given line-region
// relation to the reference region (the paper's Section 7 extension to
// linear data). The index is expected to hold the lines' MBRs under
// the same object ids as the store. Lines with degenerate (axis-
// aligned) MBRs cannot be stored in an MBR index directly; pad their
// rectangles and run the processor in NonCrisp mode.
func (p *Processor) QueryLine(rel geom.LineRegionRelation, ref geom.Region, lines LineStore) (Result, error) {
	return p.QueryLineCtx(context.Background(), rel, ref, lines)
}

// QueryLineCtx is QueryLine with context cancellation.
func (p *Processor) QueryLineCtx(ctx context.Context, rel geom.LineRegionRelation, ref geom.Region, lines LineStore) (Result, error) {
	if !rel.Valid() {
		return Result{}, fmt.Errorf("query: invalid line-region relation %v", rel)
	}
	if ref == nil {
		return Result{}, fmt.Errorf("query: nil reference region")
	}
	if err := ref.Validate(); err != nil {
		return Result{}, fmt.Errorf("query: invalid reference region: %w", err)
	}
	cands := mbr.LineCandidates(rel)
	if p.NonCrisp {
		cands = mbr.Expand2(cands)
	}
	refMBR := ref.Bounds()
	matches, stats, err := p.filter(ctx, newFilterPlan(cands), refMBR)
	if err != nil {
		return Result{}, err
	}
	out := matches[:0:0]
	for _, m := range matches {
		cfg := mbr.ConfigOf(m.Rect, refMBR)
		// Direct accept when the configuration admits only the queried
		// relation (crisp MBRs only).
		if !p.NonCrisp {
			if poss := mbr.PossibleLineRelations(cfg); len(poss) == 1 && poss[0] == rel {
				stats.DirectAccepts++
				out = append(out, m)
				continue
			}
		}
		line, ok := lines[m.OID]
		if !ok {
			return Result{}, fmt.Errorf("query: refinement needs line %d, not in store", m.OID)
		}
		stats.RefinementTests++
		if got, _ := geom.RelateLineRegion(line, ref); got == rel {
			out = append(out, m)
		} else {
			stats.FalseHits++
		}
	}
	return Result{Matches: out, Stats: stats}, nil
}
