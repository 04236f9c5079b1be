package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// The oracles answer each request by a brute-force pass over the
// reference model: every stored rectangle is classified against the
// reference with mbr.ConfigOf and kept when its configuration is a
// Table 1 candidate of the relation set. topod stores rectangles only,
// so its answers are exactly these filter-step candidates; the tree,
// the planner, the flat snapshot, the cache and the wire all sit
// between the two.

// model is the oid → rectangle state the server should hold.
type model map[uint64]geom.Rect

func newModel(objs []obj) model {
	m := make(model, len(objs))
	for _, o := range objs {
		m[o.oid] = o.rect
	}
	return m
}

// objects lists the model for brute-force passes.
func (m model) objects() []obj {
	out := make([]obj, 0, len(m))
	for oid, r := range m {
		out = append(out, obj{oid: oid, rect: r})
	}
	return out
}

// bruteQuery is the answer to a single-term query.
func bruteQuery(objs []obj, rels topo.Set, ref geom.Rect) []uint64 {
	cands := mbr.CandidatesSet(rels)
	var out []uint64
	for _, o := range objs {
		if cands.Has(mbr.ConfigOf(o.rect, ref)) {
			out = append(out, o.oid)
		}
	}
	return sortedOIDs(out)
}

// bruteConj is the answer to a two-term conjunction: empty when the
// composition table proves no object can satisfy both terms given the
// references' own relation (Section 5), else the objects that are
// candidates of both terms.
func bruteConj(objs []obj, rels1 topo.Set, ref1 geom.Rect, rels2 topo.Set, ref2 geom.Rect) []uint64 {
	if !conjSatisfiable(rels1, rels2, mbr.RelateRects(ref1, ref2)) {
		return nil
	}
	c1, c2 := mbr.CandidatesSet(rels1), mbr.CandidatesSet(rels2)
	var out []uint64
	for _, o := range objs {
		if c1.Has(mbr.ConfigOf(o.rect, ref1)) && c2.Has(mbr.ConfigOf(o.rect, ref2)) {
			out = append(out, o.oid)
		}
	}
	return sortedOIDs(out)
}

func conjSatisfiable(rels1, rels2 topo.Set, refRel topo.Relation) bool {
	for _, r1 := range rels1.Relations() {
		for _, r2 := range rels2.Relations() {
			if topo.ConsistentConjunction(r1, r2, refRel) {
				return true
			}
		}
	}
	return false
}

// bruteKNN is the sorted distances of the k nearest rectangles to p.
func bruteKNN(objs []obj, p geom.Point, k int) []float64 {
	d := make([]float64, len(objs))
	for i, o := range objs {
		d[i] = o.rect.DistToPoint(p)
	}
	sort.Float64s(d)
	return d[:min(k, len(d))]
}

// brutePartners is the right-side OIDs a left rectangle joins with.
func brutePartners(right []obj, rels topo.Set, left geom.Rect) []uint64 {
	cands := mbr.CandidatesSet(rels)
	var out []uint64
	for _, o := range right {
		if cands.Has(mbr.ConfigOf(left, o.rect)) {
			out = append(out, o.oid)
		}
	}
	return sortedOIDs(out)
}

func sortedOIDs(s []uint64) []uint64 {
	slices.Sort(s)
	return s
}

// sameOIDs compares an answer with the oracle's, describing the first
// difference.
func sameOIDs(got, want []uint64) error {
	got = sortedOIDs(slices.Clone(got))
	if slices.Equal(got, want) {
		return nil
	}
	extra, missing := diffOIDs(got, want), diffOIDs(want, got)
	return fmt.Errorf("%d matches, oracle %d (extra %v, missing %v)", len(got), len(want), head(extra), head(missing))
}

// diffOIDs is a \ b for sorted slices.
func diffOIDs(a, b []uint64) []uint64 {
	var out []uint64
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			out = append(out, v)
		}
	}
	return out
}

func head(s []uint64) []uint64 { return s[:min(len(s), 5)] }

// sameDists compares kNN distances with the oracle's.
func sameDists(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbours, oracle %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, want[i]) {
			return fmt.Errorf("neighbour %d at distance %g, oracle %g", i, got[i], want[i])
		}
	}
	return nil
}

// sampledRead is one answer kept for checking after the timed phase,
// so the brute-force passes do not compete with the load.
type sampledRead struct {
	op    readOp
	oids  []uint64
	dists []float64
	join  map[uint64][]uint64
}

// joinSampleSize is how many left objects of each join have their
// partner sets checked.
const joinSampleSize = 8

// checkReads verifies sampled answers against the model.
func checkReads(t *tally, m model, overlay []obj, samples []sampledRead) {
	objs := m.objects()
	for _, s := range samples {
		op := s.op
		var err error
		switch op.kind {
		case opWindow, opSelect:
			err = sameOIDs(s.oids, bruteQuery(objs, parseSet(op.rels), op.ref))
		case opConj:
			err = sameOIDs(s.oids, bruteConj(objs, parseSet(op.rels), op.ref, parseSet(op.rels2), op.ref2))
		case opKNN:
			err = sameDists(s.dists, bruteKNN(objs, geom.Point{X: op.x, Y: op.y}, knnK))
		case opJoin:
			rels := parseSet(op.rels)
			for _, l := range overlay[:min(joinSampleSize, len(overlay))] {
				if err = sameOIDs(s.join[l.oid], brutePartners(objs, rels, l.rect)); err != nil {
					err = fmt.Errorf("left %d: %w", l.oid, err)
					break
				}
			}
		}
		if err != nil {
			t.fail("oracle: %s %s: %v", opNames[op.kind], setName(op.rels), err)
		}
	}
}

// joinSample is the set of left OIDs whose partners a join keeps.
func joinSample(overlay []obj) map[uint64]bool {
	s := map[uint64]bool{}
	for _, l := range overlay[:min(joinSampleSize, len(overlay))] {
		s[l.oid] = true
	}
	return s
}
