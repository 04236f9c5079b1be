package query

import (
	"sync/atomic"

	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// filterPlan is the reference-independent half of steps 2 and 3 for
// one admissible configuration set: the leaf configurations (Table 1),
// the node configurations they propagate to (Table 2), and the per-axis
// domination pre-tests of both. Only the reference MBR varies between
// queries with the same relation set, so the plan is derived once and
// reused.
type filterPlan struct {
	cands   mbr.ConfigSet
	prop    mbr.ConfigSet
	nodeDom mbr.Domination
	leafDom mbr.Domination
}

// newFilterPlan derives a plan live from the configuration set.
func newFilterPlan(cands mbr.ConfigSet) *filterPlan {
	prop := mbr.Propagation(cands)
	return &filterPlan{
		cands:   cands,
		prop:    prop,
		nodeDom: mbr.DominationFor(prop),
		leafDom: mbr.DominationFor(cands),
	}
}

// planModes is the number of processor mode combinations a relation
// set's candidate configurations depend on: crisp or non-crisp, times
// contiguous or non-contiguous.
const planModes = 4

// planTable memoises the plan of every relation set under every mode.
// A topo.Set is a byte, so the table is bounded at 4 × 256 entries.
// Slots fill lazily on first use; two goroutines racing on an empty
// slot derive identical plans, so whichever store lands is correct.
var planTable [planModes][1 << 8]atomic.Pointer[filterPlan]

// planMode indexes planTable by the processor's modes.
func (p *Processor) planMode() int {
	m := 0
	if p.NonCrisp {
		m |= 1
	}
	if p.NonContiguous {
		m |= 2
	}
	return m
}

// planFor returns the memoised plan for a relation set under the
// processor's modes.
func (p *Processor) planFor(rels topo.Set) *filterPlan {
	slot := &planTable[p.planMode()][rels]
	if pl := slot.Load(); pl != nil {
		return pl
	}
	pl := newFilterPlan(p.candidateConfigs(rels))
	slot.Store(pl)
	return pl
}
