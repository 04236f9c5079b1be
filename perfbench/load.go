package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
)

// requestTimeout bounds one request; topod's own default deadline is
// 30s.
const requestTimeout = 60 * time.Second

// readResult aggregates the answers of one or more read loops.
type readResult struct {
	lat      [numOpKinds]series // client latency per class
	done     int                // requests answered
	wireNA   uint64             // node accesses reported on the wire
	elapsed  float64            // seconds the loops ran
	samples  []sampledRead
	shortCut int                   // conjunctions answered with zero page reads
	rel      [numOpKinds]relSeries // batch pairs with the reference server
}

// rps is the completed requests per second, joins aside: the median of
// the rates of five equal stretches of the run, like series.p50.
func (a readResult) rps() float64 {
	var all series
	for k, s := range a.lat {
		if opKind(k) != opJoin {
			all.merge(s)
		}
	}
	if len(all.at) < chunks*minP50Samples {
		return float64(len(all.at)) / a.elapsed
	}
	lo, hi := slices.Min(all.at), slices.Max(all.at)
	width := (hi - lo) / chunks
	counts := make([]float64, chunks)
	for _, at := range all.at {
		counts[min(chunks-1, int((at-lo)/width))]++
	}
	for i := range counts {
		counts[i] /= width
	}
	return median(counts)
}

func (a *readResult) merge(b readResult) {
	for k := range a.lat {
		a.lat[k].merge(b.lat[k])
	}
	a.done += b.done
	a.wireNA += b.wireNA
	a.samples = append(a.samples, b.samples...)
	a.shortCut += b.shortCut
	a.elapsed = max(a.elapsed, b.elapsed)
	for k := range a.rel {
		a.rel[k].merge(b.rel[k])
	}
}

// readLoopCfg drives one closed-loop read connection.
type readLoopCfg struct {
	next        func() readOp
	until       time.Time // stop at this time (zero: no deadline)
	maxOps      int       // stop after this many requests (0: no cap)
	sampleEvery int       // keep every n-th answer for the oracle (0: none)
	maxSamples  int
	joinSample  map[uint64]bool
}

// readLoop sends one request after another over c until the deadline
// or the request cap. Every answer is parsed; sampled ones are kept
// for the oracle, which runs after the loop.
func readLoop(c *conn, cfg readLoopCfg, t *tally) readResult {
	var res readResult
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.maxOps > 0 && i >= cfg.maxOps {
			break
		}
		if !cfg.until.IsZero() && !time.Now().Before(cfg.until) {
			break
		}
		op := cfg.next()
		keep := op.kind == opJoin || (cfg.sampleEvery > 0 && i%cfg.sampleEvery == 0 && len(res.samples) < cfg.maxSamples)
		t.attempt(1)
		sample, na, err := readOnce(c, op, keep, cfg.joinSample, &res.lat[op.kind])
		if err != nil {
			t.fail("%s %s: %v", opNames[op.kind], setName(op.rels), err)
			continue
		}
		res.done++
		res.wireNA += na
		if op.kind == opConj && na == 0 {
			res.shortCut++
		}
		if keep {
			res.samples = append(res.samples, sample)
		}
	}
	res.elapsed = time.Since(start).Seconds()
	return res
}

// readOnce sends one read request and appends its latency to lat.
func readOnce(c *conn, op readOp, keep bool, joinSample map[uint64]bool, lat *series) (sampledRead, uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	s := sampledRead{op: op}
	start := time.Now()
	var na uint64
	switch op.kind {
	case opKNN:
		ans, err := c.knn(ctx, mainIndex, knnK, op.x, op.y)
		if err != nil {
			return s, 0, err
		}
		lat.add(start)
		na = ans.NodeAccesses
		for _, nb := range ans.Neighbours {
			s.dists = append(s.dists, nb.Dist)
		}
	case opJoin:
		ans, err := c.join(ctx, op.body, joinSample)
		if err != nil {
			return s, 0, err
		}
		lat.add(start)
		na = ans.stats.NodeAccesses
		s.join = ans.partners
	default:
		ans, err := c.query(ctx, op.body, keep)
		if err != nil {
			return s, 0, err
		}
		lat.add(start)
		na = ans.stats.NodeAccesses
		s.oids = ans.oids
	}
	return s, na, nil
}

// roundPlan is how many requests of each class one connection sends
// in a round.
type roundPlan [numOpKinds]int

// runRounds drives one closed loop per connection in rounds of
// single-class batches: a round sends plan[k] requests of class k on
// every connection at once, one class after another, and waits for all
// connections between classes. Each batch is paired with a batch of
// reference requests on as many connections of refs (ref.go). Joins
// are sent only every joinEvery-th round. It runs rounds rounds or,
// when rounds is 0, stops at the first class boundary after until. cfg
// gives the sampling; its next, maxOps and until are set per batch.
func runRounds(p *proc, conns []*conn, rs refs, mixers []*mixer, plan roundPlan, joinEvery, rounds int, until time.Time, cfg readLoopCfg, t *tally) readResult {
	var all readResult
	start := time.Now()
	results := make([]readResult, len(conns))
run:
	for round := 0; rounds == 0 || round < rounds; round++ {
		for k := opKind(0); k < numOpKinds; k++ {
			if plan[k] == 0 || (k == opJoin && round%joinEvery != 0) {
				continue
			}
			if rounds == 0 && !time.Now().Before(until) {
				break run
			}
			pair := startPair(p)
			var wg sync.WaitGroup
			for i := range conns {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := cfg
					c.next = func() readOp { return mixers[i].op(k) }
					c.maxOps, c.until = plan[k], time.Time{}
					results[i] = readLoop(conns[i], c, t)
				}(i)
			}
			wg.Wait()
			done := 0
			for _, r := range results {
				done += r.done
			}
			pair.end(&all.rel[k], done, rs, refRead[k], plan[k], t)
			for _, r := range results {
				all.merge(r)
			}
		}
	}
	all.elapsed = time.Since(start).Seconds()
	return all
}

// nodeAccessCheck compares the /metrics node-access delta with the sum
// of the per-request stats lines, as topod -bench does. It holds only
// while no cached answer was replayed (a hit replays its stats line
// without reading a page).
func nodeAccessCheck(t *tally, before, after promValues, wire uint64) {
	t.attempt(1)
	got := delta(before, after, "topod_node_accesses_total")
	if hits := delta(before, after, "topod_cache_hits_total"); hits != 0 {
		t.fail("node-access cross-check: %v cache hits where every reference was fresh", hits)
		return
	}
	if uint64(got) != wire {
		t.fail("node-access cross-check: /metrics grew by %v, stats lines sum to %d", got, wire)
	}
}

// probeRounds is how many rounds a read probe's requests are split
// into, and probeJoinEvery how often a round includes a join.
const (
	probeRounds    = 100
	probeJoinEvery = 4
)

// readProbe runs a fixed-count closed-loop probe on one connection:
// size.probe requests of each given class, spread over probeRounds
// rounds of single-class batches (runRounds), so every class sees the
// same stretches of the run. It checks the answers it keeps.
func readProbe(r *runCtx, p *proc, in *inputs, m model, overlay []obj, kinds []opKind) (readResult, error) {
	var plan roundPlan
	for _, k := range kinds {
		plan[k] = max(1, r.size.probe[k]/probeRounds)
	}
	plan[opJoin] = min(plan[opJoin], 1)
	c := newConn(p.base, "probe")
	defer c.close(r.tally)
	rs := r.refConns(1, "ref-probe")
	defer rs.close(r.tally)
	before, err := c.metrics(context.Background())
	if err != nil {
		return readResult{}, err
	}
	res := runRounds(p, []*conn{c}, rs, []*mixer{newMixer(in, 1000)}, plan, probeJoinEvery, probeRounds, time.Time{},
		readLoopCfg{sampleEvery: 16, maxSamples: 2, joinSample: joinSample(overlay)}, r.tally)
	after, err := c.metrics(context.Background())
	if err != nil {
		return readResult{}, err
	}
	nodeAccessCheck(r.tally, before, after, res.wireNA)
	checkReads(r.tally, m, overlay, res.samples)
	return res, nil
}

// Batch sizes of the write and bulk probes: each batch is paired with
// as many reference requests.
const (
	writeBatch = 50
	bulkBatch  = 20
)

// writeProbe sends n single writes closed-loop over one connection:
// inserts of fresh objects, every fourth write a delete of the oldest
// of them. It returns their latencies and the ratios of their batches
// of writeBatch to the paired reference batches.
func writeProbe(r *runCtx, p *proc, n int, m model) (series, relSeries) {
	c := newConn(p.base, "write-probe")
	defer c.close(r.tally)
	rs := r.refConns(1, "ref-write")
	defer rs.close(r.tally)
	g := newWriteGen(r.opts.seed, 77, firstWriteOID+5_000_000)
	var lat series
	var rel relSeries
	var inserted []obj
	pair, ok := startPair(p), 0
	for i := 0; i < n; i++ {
		var path string
		var o obj
		if !isDelete(i) || len(inserted) == 0 {
			path, o = "/v1/insert", g.insert()
		} else {
			path, o = "/v1/delete", inserted[0]
		}
		start := time.Now()
		r.tally.attempt(1)
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		err := c.post(ctx, path, "application/json", updateBody(mainIndex, o))
		cancel()
		if err != nil {
			r.tally.fail("write probe %s %d: %v", path, o.oid, err)
		} else {
			lat.add(start)
			ok++
			if path == "/v1/insert" {
				inserted = append(inserted, o)
				m[o.oid] = o.rect
			} else {
				inserted = inserted[1:]
				delete(m, o.oid)
			}
		}
		if (i+1)%writeBatch == 0 {
			if i == n-1 {
				// Background work of the last writes, such as a
				// checkpoint, belongs to the probe.
				r.settle(p, "end of the write probe")
			}
			pair.end(&rel, ok, rs, refWrite, writeBatch, r.tally)
			pair, ok = startPair(p), 0
		}
	}
	return lat, rel
}

// bulkProbeSize is the records per /v1/bulk batch of the write mixes.
const bulkProbeSize = 16

// bulkProbe sends n small /v1/bulk batches closed-loop and returns
// their latencies and the ratios of their groups of bulkBatch to the
// paired reference batches.
func bulkProbe(r *runCtx, p *proc, n int, m model) (series, relSeries) {
	c := newConn(p.base, "bulk-probe")
	defer c.close(r.tally)
	rs := r.refConns(1, "ref-bulk")
	defer rs.close(r.tally)
	g := newWriteGen(r.opts.seed, 78, firstWriteOID+8_000_000)
	var lat series
	var rel relSeries
	pair, ok := startPair(p), 0
	for i := 0; i < n; i++ {
		objs := g.batch(bulkProbeSize)
		start := time.Now()
		r.tally.attempt(1)
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		err := c.post(ctx, "/v1/bulk?index="+mainIndex, "application/x-ndjson", bulkBody(objs))
		cancel()
		if err != nil {
			r.tally.fail("bulk probe: %v", err)
		} else {
			lat.add(start)
			ok++
			for _, o := range objs {
				m[o.oid] = o.rect
			}
		}
		if (i+1)%bulkBatch == 0 {
			if i == n-1 {
				r.settle(p, "end of the bulk probe")
			}
			pair.end(&rel, ok, rs, refBulk, bulkBatch, r.tally)
			pair, ok = startPair(p), 0
		}
	}
	return lat, rel
}

// itemsToObjs converts generated items for the model.
func itemsToObjs(items []index.Item) []obj {
	out := make([]obj, len(items))
	for i, it := range items {
		out[i] = obj{oid: it.OID, rect: it.Rect}
	}
	return out
}

// fullState reads every OID the main index serves, with one "in"
// query over a reference that covers the whole workspace.
func fullState(c *conn) ([]uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	body := mustJSON(queryReq{Index: mainIndex, Relations: []string{"in"}, Ref: wireRect(geom.R(-1, -1, 1001, 1001))})
	ans, err := c.query(ctx, body, true)
	if err != nil {
		return nil, fmt.Errorf("full-state query: %w", err)
	}
	return ans.oids, nil
}
