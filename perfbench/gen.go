package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// Every input is derived from --seed; topod only ever receives the
// generated rectangles and requests.

const (
	mainIndex    = "main"
	overlayIndex = "overlay"
	// firstWriteOID keeps benchmark inserts clear of the dataset's
	// OIDs (1..objects).
	firstWriteOID = 10_000_000
)

// inputs is the generated data of one run.
type inputs struct {
	items   []index.Item // main index: medium-class rectangles
	overlay []index.Item // join partner: medium-class rectangles
	seed    int64
	// eqPerm hands out stored rectangles as "equal" references without
	// repetition, so no select request can hit the result cache.
	eqPerm []int
	eqNext atomic.Int64
}

func makeInputs(seed int64, sz sizing) *inputs {
	in := &inputs{
		items:   workload.NewDataset(workload.Medium, sz.objects, 0, seed).Items,
		overlay: workload.NewDataset(workload.Medium, sz.overlay, 0, seed^0x5eed0ff5e7).Items,
		seed:    seed,
	}
	in.eqPerm = rand.New(rand.NewSource(seed ^ 0xe9a1)).Perm(len(in.items))
	return in
}

// ndjson renders items as /v1/bulk lines.
func ndjson(items []index.Item) []byte {
	var b []byte
	for _, it := range items {
		b = appendBulkLine(b, it.OID, it.Rect)
	}
	return b
}

func appendBulkLine(b []byte, oid uint64, r geom.Rect) []byte {
	b = append(b, `{"oid":`...)
	b = strconv.AppendUint(b, oid, 10)
	b = append(b, `,"rect":[`...)
	for i, v := range [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}\n"...)
}

// writeNDJSON stores items as a /v1/bulk-format file, the form topod
// reads with -data.
func writeNDJSON(path string, items []index.Item) error {
	return os.WriteFile(path, ndjson(items), 0o644)
}

// Relation groups of the read mix.
var (
	// broadSets return hundreds of matches per random reference.
	broadSets = [][]string{{"overlap"}, {"meet"}, {"not_disjoint"}}
	// selectSets return a handful.
	selectSets = [][]string{{"equal"}, {"covers"}, {"contains"}, {"inside"}, {"covered_by"}, {"in"}}
	// conjTerms pair two relation sets; with nearby references some
	// pairs are provably empty and short-circuit on the composition
	// table.
	conjTerms = [][2][]string{
		{{"inside"}, {"inside"}},
		{{"overlap"}, {"in"}},
		{{"not_disjoint"}, {"covered_by"}},
		{{"contains"}, {"overlap"}},
	}
	// joinSets pair overlay objects with main objects: a few thousand
	// pairs each for a 2000-object overlay.
	joinSets = [][]string{{"inside"}, {"in"}, {"contains"}, {"covers"}}
)

// parseSet resolves wire relation names with topod's aliases.
func parseSet(names []string) topo.Set {
	var s topo.Set
	for _, n := range names {
		switch n {
		case "in":
			s = s.Union(topo.In)
		case "not_disjoint":
			s = s.Union(topo.NotDisjoint)
		default:
			r, err := topo.ParseRelation(n)
			if err != nil {
				panic(fmt.Sprintf("perfbench: relation table holds %q: %v", n, err))
			}
			s = s.Add(r)
		}
	}
	return s
}

// opKind is a class of read request; each has its own latency metric.
type opKind int

const (
	opWindow opKind = iota // broad relation set
	opSelect               // selective relation set
	opConj                 // two-term conjunction
	opKNN                  // k nearest neighbours
	opJoin                 // overlay × main join
	numOpKinds
)

var opNames = [numOpKinds]string{"window", "select", "conj", "knn", "join"}

// knnK is the k of every kNN request.
const knnK = 10

// readOp is one generated read request.
type readOp struct {
	kind  opKind
	rels  []string
	ref   geom.Rect
	rels2 []string
	ref2  geom.Rect
	x, y  float64
	body  []byte // /v1/query or /v1/join body
}

// queryRound is the query workload's requests per connection per
// round (runRounds), by count: of 50 requests, 30% broad sets, 42%
// selective sets, 15% two-term conjunctions and 13% kNN; every
// queryJoinEvery-th round ends with one join. Each class's share is
// fixed, so every run does the same mix of work whatever its length.
var queryRound = roundPlan{opWindow: 15, opSelect: 21, opConj: 8, opKNN: 6, opJoin: 1}

const queryJoinEvery = 5

// mixer generates read requests from its own seeded stream.
type mixer struct {
	rng *rand.Rand
	in  *inputs
}

func newMixer(in *inputs, stream int64) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(in.seed*7919 + stream)), in: in}
}

// op draws one request of a given class.
func (m *mixer) op(k opKind) readOp {
	op := readOp{kind: k}
	switch k {
	case opWindow:
		op.rels = broadSets[m.rng.Intn(len(broadSets))]
		op.ref = workload.RandomRect(m.rng, workload.Medium)
	case opSelect:
		op.rels = selectSets[m.rng.Intn(len(selectSets))]
		if op.rels[0] == "equal" {
			// A stored rectangle, so the answer is not empty.
			i := m.in.eqNext.Add(1) - 1
			op.ref = m.in.items[m.in.eqPerm[int(i)%len(m.in.eqPerm)]].Rect
		} else {
			op.ref = workload.RandomRect(m.rng, workload.Medium)
		}
	case opConj:
		t := conjTerms[m.rng.Intn(len(conjTerms))]
		op.rels, op.rels2 = t[0], t[1]
		op.ref = workload.RandomRect(m.rng, workload.Medium)
		// The second reference is a nearby rectangle: sometimes
		// overlapping the first, sometimes disjoint from it.
		r := workload.RandomRect(m.rng, workload.Medium)
		dx := op.ref.Min.X - r.Min.X + (m.rng.Float64()-0.5)*24
		dy := op.ref.Min.Y - r.Min.Y + (m.rng.Float64()-0.5)*24
		op.ref2 = geom.R(r.Min.X+dx, r.Min.Y+dy, r.Max.X+dx, r.Max.Y+dy)
	case opKNN:
		world := workload.World()
		op.x = world.Min.X + m.rng.Float64()*world.Width()
		op.y = world.Min.Y + m.rng.Float64()*world.Height()
		return op
	case opJoin:
		op.rels = joinSets[m.rng.Intn(len(joinSets))]
		op.body = mustJSON(joinReq{Left: overlayIndex, Right: mainIndex, Relations: op.rels})
		return op
	}
	op.body = queryBody(mainIndex, op)
	return op
}

func queryBody(index string, op readOp) []byte {
	req := queryReq{Index: index, Relations: op.rels, Ref: wireRect(op.ref)}
	if op.rels2 != nil {
		req.Relations2, req.Ref2 = op.rels2, wireRect(op.ref2)
	}
	return mustJSON(req)
}

func wireRect(r geom.Rect) []float64 { return []float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// hotPool is the hot workload's small set of broad-relation requests.
// The reader draws from it Zipf-weighted, so the popular entries stay
// in topod's 256-entry result cache between writes. Every entry is a
// not_disjoint window of the same size whose answer is of the median
// size among hotCandidates windows drawn: which entries the seed makes
// popular then hardly changes the work a read or a miss costs.
func hotPool(in *inputs, n int) []readOp {
	rng := rand.New(rand.NewSource(in.seed*7919 + 1<<20))
	world := workload.World()
	objs := make([]obj, len(in.items))
	for i, it := range in.items {
		objs[i] = obj{oid: it.OID, rect: it.Rect}
	}
	const side = 32
	type cand struct {
		op      readOp
		answers int
	}
	cands := make([]cand, hotCandidates*n)
	for i := range cands {
		x := world.Min.X + rng.Float64()*(world.Width()-side)
		y := world.Min.Y + rng.Float64()*(world.Height()-side)
		op := readOp{kind: opWindow, rels: []string{"not_disjoint"}, ref: geom.R(x, y, x+side, y+side)}
		cands[i] = cand{op, len(bruteQuery(objs, topo.NotDisjoint, op.ref))}
	}
	// The n candidates around the median, in their drawn order.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cands[order[a]].answers < cands[order[b]].answers })
	mid := order[(len(order)-n)/2 : (len(order)-n)/2+n]
	sort.Ints(mid)
	pool := make([]readOp, n)
	for i, c := range mid {
		pool[i] = cands[c].op
		pool[i].body = queryBody(mainIndex, pool[i])
	}
	return pool
}

// hotCandidates is how many windows are drawn per hot pool entry.
const hotCandidates = 8

// isDelete makes every fourth single write a delete of an earlier
// insert: inserts stay the majority, so a write p50 falls inside the
// insert mode instead of between the insert and delete modes.
func isDelete(i int) bool { return i%4 == 3 }

// obj is one stored rectangle of the reference model.
type obj struct {
	oid  uint64
	rect geom.Rect
}

// writeGen draws the benchmark's mutations: inserts of fresh OIDs
// spread over the whole space, deletes of earlier inserts, and small
// bulk batches. It tracks which of its inserts are live, so a delete
// always names a stored object.
type writeGen struct {
	rng  *rand.Rand
	next uint64
	live []obj
}

func newWriteGen(seed int64, stream int64, firstOID uint64) *writeGen {
	return &writeGen{rng: rand.New(rand.NewSource(seed*104729 + stream)), next: firstOID}
}

func (g *writeGen) fresh() obj {
	g.next++
	return obj{oid: g.next, rect: workload.RandomRect(g.rng, workload.Medium)}
}

// insert draws a new object and counts it live.
func (g *writeGen) insert() obj {
	o := g.fresh()
	g.live = append(g.live, o)
	return o
}

// remove picks a live object of this generator to delete.
func (g *writeGen) remove() (obj, bool) {
	if len(g.live) == 0 {
		return obj{}, false
	}
	i := g.rng.Intn(len(g.live))
	o := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return o, true
}

// batch draws n new objects for a /v1/bulk request.
func (g *writeGen) batch(n int) []obj {
	out := make([]obj, n)
	for i := range out {
		out[i] = g.insert()
	}
	return out
}

func updateBody(index string, o obj) []byte {
	return mustJSON(updateReq{Index: index, OID: o.oid, Rect: wireRect(o.rect)})
}

func bulkBody(objs []obj) []byte {
	var b []byte
	for _, o := range objs {
		b = appendBulkLine(b, o.oid, o.rect)
	}
	return b
}

// setName renders a relation set for messages.
func setName(rels []string) string { return strings.Join(rels, "|") }
