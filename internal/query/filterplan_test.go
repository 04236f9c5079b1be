package query

import (
	"sync"
	"testing"

	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// TestPlanTablePinnedToLiveDerivation checks every slot of the plan
// table — all 256 relation sets under each of the four mode
// combinations — against the live Table 1/Table 2 derivation, and
// that a second lookup returns the memoised plan.
func TestPlanTablePinnedToLiveDerivation(t *testing.T) {
	for mode := 0; mode < planModes; mode++ {
		p := &Processor{NonCrisp: mode&1 != 0, NonContiguous: mode&2 != 0}
		for s := 0; s < 1<<8; s++ {
			rels := topo.Set(s)
			got := p.planFor(rels)
			cands := p.candidateConfigs(rels)
			prop := mbr.Propagation(cands)
			if !got.cands.Equal(cands) {
				t.Fatalf("mode %d set %v: table candidates %v, live %v", mode, rels, got.cands, cands)
			}
			if !got.prop.Equal(prop) {
				t.Fatalf("mode %d set %v: table propagation %v, live %v", mode, rels, got.prop, prop)
			}
			if got.nodeDom != mbr.DominationFor(prop) {
				t.Fatalf("mode %d set %v: table node domination differs from live", mode, rels)
			}
			if got.leafDom != mbr.DominationFor(cands) {
				t.Fatalf("mode %d set %v: table leaf domination differs from live", mode, rels)
			}
			if again := p.planFor(rels); again != got {
				t.Fatalf("mode %d set %v: second lookup derived a new plan", mode, rels)
			}
		}
	}
}

// TestPlanTableConcurrentFill looks plans up from several goroutines at
// once, so the race detector sees concurrent first fills of a slot.
func TestPlanTableConcurrentFill(t *testing.T) {
	procs := []*Processor{{}, {NonCrisp: true}, {NonContiguous: true}, {NonCrisp: true, NonContiguous: true}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 1<<8 - 1; s > 0; s-- {
				for _, p := range procs {
					pl := p.planFor(topo.Set(s))
					if !pl.cands.Equal(p.candidateConfigs(topo.Set(s))) {
						t.Errorf("set %v: concurrent lookup returned a wrong plan", topo.Set(s))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
