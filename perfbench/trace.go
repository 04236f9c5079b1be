package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/server"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// The traced run builds the workload's server in process (server.New
// and AddIndex with the same spec and data topod gets), feeds it a
// seeded sample of the workload's operations, and times each call
// into a layer's public entry point as one span. For a request, the
// entry points of the lower layers are called again, one after
// another, with the same arguments, so a child span follows its
// parent instead of nesting inside it; a layer's self time is the
// median of its span minus the median of its child entry point over
// the same requests.

// span is one timed call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	byKey map[string][]float64 // span name → durations in µs
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byKey: map[string][]float64{}} }

// do times fn as a span and returns its id.
func (t *tracer) do(name string, req, parent int64, fn func()) int64 {
	start := time.Now()
	fn()
	end := time.Now()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.byKey[name] = append(t.byKey[name], float64(end.Sub(start).Nanoseconds())/1e3)
	return id
}

func (t *tracer) median(name string) float64 { return median(t.byKey[name]) }

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayerUnits names the per-layer metrics of the traced run.
var perLayerUnits = map[string]string{
	"topod.transport_us":             "us",
	"server.query_us":                "us",
	"server.query_self_us":           "us",
	"server.bytes_per_match":         "bytes",
	"server.cache_hit_ratio":         "ratio",
	"server.cache_evictions":         "count",
	"server.write_us":                "us",
	"server.bulk_us_per_record":      "us",
	"server.checkpoint_ms":           "ms",
	"query.stream_us":                "us",
	"query.node_accesses":            "count",
	"query.node_accesses_selective":  "count",
	"query.candidates":               "count",
	"query.candidates_selective":     "count",
	"query.conj_us":                  "us",
	"query.shortcircuit_ratio":       "ratio",
	"query.planner_estimate_us":      "us",
	"query.join_ms":                  "ms",
	"query.join_node_accesses":       "count",
	"query.join_pairs":               "count",
	"mbr.plan_us":                    "us",
	"rtree.search_us":                "us",
	"rtree.search_node_accesses":     "count",
	"rtree.knn_us":                   "us",
	"rtree.knn_node_accesses":        "count",
	"rtree.insert_us":                "us",
	"rtree.pages_written_per_insert": "count",
	"rtree.bulk_ms":                  "ms",
	"wal.records_per_commit":         "count",
	"wal.commit_us":                  "us",
	"wal.append_us":                  "us",
	"wal.bytes_per_record":           "bytes",
	"watch.event_lag_ms":             "ms",
	"watch.notify_us":                "us",
	"watch.pruned_ratio":             "ratio",
}

// recorder is a minimal http.ResponseWriter for in-process ServeHTTP
// calls: it keeps the body so match lines can be counted.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *recorder) Header() http.Header         { return w.hdr }
func (w *recorder) WriteHeader(code int)        { w.code = code }
func (w *recorder) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *recorder) Flush()                      {}

// serve calls the handler in process and returns the response body.
func serve(h http.Handler, method, path string, body []byte) (*recorder, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	w := &recorder{hdr: http.Header{}, code: http.StatusOK}
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		return w, fmt.Errorf("%s %s: HTTP %d: %s", method, path, w.code, bytes.TrimSpace(w.body.Bytes()))
	}
	return w, nil
}

// scrape reads /metrics in process.
func scrape(h http.Handler) (promValues, error) {
	w, err := serve(h, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(&w.body)
}

// tracedServer builds the workload's server in process. The query
// workload's index is written durably, closed, and reopened so it
// boots from its flat snapshot, as topod does after its clean restart.
func tracedServer(r *runCtx, in *inputs) (*server.Server, *server.Instance, *server.Instance, error) {
	cfg := server.Config{MaxInFlight: 64, DefaultTimeout: 30 * time.Second, MaxWatch: 256, CacheSize: 256}
	spec := server.IndexSpec{Name: mainIndex, Kind: index.KindRStar, Bulk: true}
	if r.wl.durable {
		spec.Dir = filepath.Join(r.dir, "trace-data")
		spec.Fsync = wal.SyncInterval
		spec.Flat = true
	}
	srv := server.New(cfg)
	inst, err := srv.AddIndex(spec, in.items)
	if err != nil {
		return nil, nil, nil, err
	}
	if r.wl.flatBoot {
		if err := srv.Close(); err != nil {
			return nil, nil, nil, err
		}
		srv = server.New(cfg)
		if inst, err = srv.AddIndex(spec, nil); err != nil {
			return nil, nil, nil, err
		}
		if b := inst.Backend(); b != "flat" {
			return nil, nil, nil, fmt.Errorf("traced index boots backend=%q, want flat", b)
		}
	}
	ov, err := srv.AddIndex(server.IndexSpec{Name: overlayIndex, Kind: index.KindRStar, Bulk: true}, in.overlay)
	if err != nil {
		return nil, nil, nil, err
	}
	return srv, inst, ov, nil
}

// runTraced is the --trace 1 run.
func runTraced(r *runCtx, m map[string]metric) error {
	in := makeInputs(r.opts.seed, r.size)
	tr := newTracer()
	var req int64
	nextReq := func() int64 { req++; return req }
	ctx := context.Background()
	t := r.tally

	// rtree: STR packing of the dataset, the core of every set-up.
	var packed index.Index
	for i := 0; i < 3; i++ {
		var err error
		tr.do("rtree.bulk", nextReq(), 0, func() { packed, err = index.NewPacked(index.KindRStar, index.PaperPageSize, in.items) })
		if !t.check(err) {
			return err
		}
	}
	r.put(m, "rtree.bulk_ms", "ms", tr.median("rtree.bulk")/1e3, 3)

	srv, inst, ov, err := tracedServer(r, in)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		srv.DrainWatchers()
		_ = hs.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + ln.Addr().String()

	// Reads, one class at a time, with fresh references.
	mx := newMixer(in, 5000)
	before, err := scrape(h)
	if err != nil {
		return err
	}
	var matchBytes, matches int
	// readClass serves n requests of a class through the handler, then
	// hands each to each with the handler span's id and request id.
	readClass := func(k opKind, n int, each func(op readOp, id, rid int64)) {
		for i := 0; i < n; i++ {
			op := mx.op(k)
			rid := nextReq()
			var w *recorder
			var err error
			id := tr.do("server.query."+opNames[k], rid, 0, func() { w, err = serve(h, http.MethodPost, "/v1/query", op.body) })
			if !t.check(err) {
				continue
			}
			if k == opWindow {
				for _, line := range bytes.SplitAfter(w.body.Bytes(), []byte("\n")) {
					if bytes.HasPrefix(line, []byte(`{"oid":`)) {
						matches++
						matchBytes += len(line)
					}
				}
			}
			each(op, id, rid)
		}
	}
	var na, cands [numOpKinds][]float64
	var searchNA []float64
	streamAndDescend := func(op readOp, id, rid int64) {
		rels := parseSet(op.rels)
		var st query.Stats
		var err error
		tr.do("query.stream."+opNames[op.kind], rid, id, func() {
			st, err = inst.ReadProc().Stream(ctx, rels, op.ref, 0, func(query.Match) bool { return true })
		})
		if !t.check(err) {
			return
		}
		na[op.kind] = append(na[op.kind], float64(st.NodeAccesses))
		cands[op.kind] = append(cands[op.kind], float64(st.Candidates))
		tr.do("mbr.plan", rid, id, func() {
			c := mbr.CandidatesSet(rels)
			p := mbr.Propagation(c)
			_, _ = mbr.DominationFor(c), mbr.DominationFor(p)
		})
		var ts rtree.TraversalStats
		tr.do("rtree.search."+opNames[op.kind], rid, id, func() {
			hit := func(r geom.Rect) bool { return r.Intersects(op.ref) }
			ts, err = inst.ReadIndex().SearchCtx(ctx, hit, hit, func(geom.Rect, uint64) bool { return true })
		})
		if t.check(err) && op.kind == opWindow {
			searchNA = append(searchNA, float64(ts.NodeAccesses))
		}
	}
	readClass(opWindow, r.size.traceReads, streamAndDescend)
	readClass(opSelect, r.size.traceReads, streamAndDescend)
	var short int
	readClass(opConj, r.size.traceReads, func(op readOp, id, rid int64) {
		rels1, rels2 := parseSet(op.rels), parseSet(op.rels2)
		var st query.Stats
		var err error
		tr.do("query.conj", rid, id, func() {
			st, err = inst.ReadProc().StreamConjunction(ctx, rels1, op.ref, rels2, op.ref2, 0, func(query.Match) bool { return true })
		})
		if t.check(err) && st.ShortCircuited {
			short++
		}
		tr.do("query.planner_estimate", rid, id, func() {
			if pl := query.PlannerFor(inst.ReadIndex()); pl != nil {
				_ = pl.EstimateSet(rels1, op.ref)
			}
		})
	})
	after, err := scrape(h)
	if err != nil {
		return err
	}

	// kNN and joins call the lower layers directly.
	var knnNA []float64
	for i := 0; i < r.size.traceReads; i++ {
		op := mx.op(opKNN)
		var ts rtree.TraversalStats
		var err error
		tr.do("rtree.knn", nextReq(), 0, func() {
			_, ts, err = inst.ReadIndex().NearestCtx(ctx, geom.Point{X: op.x, Y: op.y}, knnK)
		})
		if t.check(err) {
			knnNA = append(knnNA, float64(ts.NodeAccesses))
		}
	}
	var joinNA, joinPairs []float64
	for i := 0; i < r.size.probe[opJoin]; i++ {
		op := mx.op(opJoin)
		pairs := 0
		var st query.Stats
		var err error
		tr.do("query.join", nextReq(), 0, func() {
			st, err = query.JoinStream(ctx, ov.ReadIndex(), inst.ReadIndex(), parseSet(op.rels), query.JoinOptions{},
				func(query.JoinPair) bool { pairs++; return true })
		})
		if t.check(err) {
			joinNA = append(joinNA, float64(st.NodeAccesses))
			joinPairs = append(joinPairs, float64(pairs))
		}
	}

	// Transport: the same select class over a real loopback connection.
	c := newConn(base, "trace-loopback")
	var rtt []float64
	for i := 0; i < r.size.traceReads; i++ {
		op := mx.op(opSelect)
		start := time.Now()
		_, err := c.query(ctx, op.body, false)
		if t.check(err) {
			rtt = append(rtt, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	c.close(t)

	// The hot workload's cache behaviour: its Zipf pool beside writes.
	if r.wl.name == "hot" {
		if before, err = scrape(h); err != nil {
			return err
		}
		pool := hotPool(in, r.size.hotPool)
		rng := rand.New(rand.NewSource(r.opts.seed*31 + 7))
		zipf := rand.NewZipf(rng, 1.3, 2, uint64(len(pool)-1))
		g := newWriteGen(r.opts.seed, 9, firstWriteOID+2_000_000)
		for i := 0; i < 10*r.size.traceReads; i++ {
			if i%250 == 249 {
				o := g.insert()
				t.check(inst.Insert(o.rect, o.oid))
			}
			_, err := serve(h, http.MethodPost, "/v1/query", pool[zipf.Uint64()].body)
			t.check(err)
		}
		if after, err = scrape(h); err != nil {
			return err
		}
	}
	hits := delta(before, after, "topod_cache_hits_total")
	misses := delta(before, after, "topod_cache_misses_total")

	w50 := tr.median("server.query.window")
	r.put(m, "server.query_us", "us", w50, len(tr.byKey["server.query.window"]))
	r.put(m, "query.stream_us", "us", tr.median("query.stream.window"), len(tr.byKey["query.stream.window"]))
	r.put(m, "server.query_self_us", "us", w50-tr.median("query.stream.window"), len(tr.byKey["server.query.window"]))
	r.put(m, "topod.transport_us", "us", median(rtt)-tr.median("server.query.select"), len(rtt))
	r.put(m, "server.bytes_per_match", "bytes", float64(matchBytes)/float64(max(1, matches)), matches)
	r.put(m, "server.cache_hit_ratio", "ratio", hits/max(1, hits+misses), int(hits+misses))
	r.put(m, "server.cache_evictions", "count", delta(before, after, "topod_cache_evictions_total"), int(hits+misses))
	r.put(m, "query.node_accesses", "count", mean(na[opWindow]), len(na[opWindow]))
	r.put(m, "query.node_accesses_selective", "count", mean(na[opSelect]), len(na[opSelect]))
	r.put(m, "query.candidates", "count", mean(cands[opWindow]), len(cands[opWindow]))
	r.put(m, "query.candidates_selective", "count", mean(cands[opSelect]), len(cands[opSelect]))
	r.put(m, "query.conj_us", "us", tr.median("query.conj"), len(tr.byKey["query.conj"]))
	r.put(m, "query.shortcircuit_ratio", "ratio", float64(short)/float64(max(1, len(tr.byKey["query.conj"]))), len(tr.byKey["query.conj"]))
	r.put(m, "query.planner_estimate_us", "us", tr.median("query.planner_estimate"), len(tr.byKey["query.planner_estimate"]))
	r.put(m, "query.join_ms", "ms", tr.median("query.join")/1e3, len(joinPairs))
	r.put(m, "query.join_node_accesses", "count", mean(joinNA), len(joinNA))
	r.put(m, "query.join_pairs", "count", mean(joinPairs), len(joinPairs))
	r.put(m, "mbr.plan_us", "us", tr.median("mbr.plan"), len(tr.byKey["mbr.plan"]))
	r.put(m, "rtree.search_us", "us", tr.median("rtree.search.window"), len(tr.byKey["rtree.search.window"]))
	r.put(m, "rtree.search_node_accesses", "count", mean(searchNA), len(searchNA))
	r.put(m, "rtree.knn_us", "us", tr.median("rtree.knn"), len(knnNA))
	r.put(m, "rtree.knn_node_accesses", "count", mean(knnNA), len(knnNA))

	if err := traceWrites(r, tr, m, h, inst, packed, nextReq); err != nil {
		return err
	}
	if err := traceWatch(r, m, h, base); err != nil {
		return err
	}
	if err := traceWAL(r, tr, m, nextReq); err != nil {
		return err
	}
	return tr.write(filepath.Join(r.dir, "spans.ndjson"))
}

// traceWrites times the write path: Instance.Insert/Delete,
// InsertBatch and Checkpoint on the served index, and a bare tree
// insert on the in-memory packed copy.
func traceWrites(r *runCtx, tr *tracer, m map[string]metric, h http.Handler, inst *server.Instance, packed index.Index, nextReq func() int64) error {
	t := r.tally
	before, err := scrape(h)
	if err != nil {
		return err
	}
	g := newWriteGen(r.opts.seed, 11, firstWriteOID+3_000_000)
	n := r.size.traceWrites
	for i := 0; i < n; i++ {
		if !isDelete(i) {
			o := g.insert()
			tr.do("server.write", nextReq(), 0, func() { err = inst.Insert(o.rect, o.oid) })
		} else {
			o, _ := g.remove()
			tr.do("server.write", nextReq(), 0, func() { err = inst.Delete(o.rect, o.oid) })
		}
		t.check(err)
	}
	for i := 0; i < max(5, n/20); i++ {
		batch := g.batch(bulkProbeSize)
		recs := make([]rtree.Record, len(batch))
		for j, o := range batch {
			recs[j] = rtree.Record{Rect: o.rect, OID: o.oid}
		}
		tr.do("server.bulk", nextReq(), 0, func() { err = inst.InsertBatch(recs) })
		t.check(err)
	}
	after, err := scrape(h)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		tr.do("server.checkpoint", nextReq(), 0, func() { err = inst.Checkpoint() })
		t.check(err)
	}
	r.put(m, "server.write_us", "us", tr.median("server.write"), n)
	r.put(m, "server.bulk_us_per_record", "us", tr.median("server.bulk")/bulkProbeSize, len(tr.byKey["server.bulk"]))
	r.put(m, "server.checkpoint_ms", "ms", tr.median("server.checkpoint")/1e3, 3)
	// Group-commit counters exist only for a durable index.
	lbl := `{index="` + mainIndex + `"}`
	commits := delta(before, after, "topod_wal_group_commits_total"+lbl)
	r.put(m, "wal.records_per_commit", "count", delta(before, after, "topod_wal_group_records_total"+lbl)/max(1, commits), int(commits))
	r.put(m, "wal.commit_us", "us", delta(before, after, "topod_wal_commit_seconds_total"+lbl)*1e6/max(1, commits), int(commits))

	// The bare tree sees the same insert/delete sequence as the
	// instance did; only the inserts are timed.
	ins := newWriteGen(r.opts.seed, 11, firstWriteOID+3_000_000)
	var written uint64
	for i := 0; i < n; i++ {
		if isDelete(i) {
			o, _ := ins.remove()
			t.check(packed.Delete(o.rect, o.oid))
			continue
		}
		o := ins.insert()
		io0 := packed.IOStats()
		tr.do("rtree.insert", nextReq(), 0, func() { err = packed.Insert(o.rect, o.oid) })
		written += packed.IOStats().Sub(io0).Writes
		t.check(err)
	}
	inserts := len(tr.byKey["rtree.insert"])
	r.put(m, "rtree.insert_us", "us", tr.median("rtree.insert"), inserts)
	r.put(m, "rtree.pages_written_per_insert", "count", float64(written)/float64(max(1, inserts)), inserts)
	return nil
}

// traceWatch measures send-to-event latency over loopback: one
// subscription, then closed-loop inserts that each enter it.
func traceWatch(r *runCtx, m map[string]metric, h http.Handler, base string) error {
	t := r.tally
	before, err := scrape(h)
	if err != nil {
		return err
	}
	watchConn, writer := newConn(base, "trace-watch"), newConn(base, "trace-writer")
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	ready := make(chan struct{})
	w := watchStream(ctx, watchConn, nil, ready)
	<-ready
	if w.err != nil {
		return w.err
	}
	g := newWriteGen(r.opts.seed, 13, firstWriteOID+6_000_000)
	cands := mbr.CandidatesSet(parseSet(watchRels))
	var lag []float64
	for i := 0; i < r.size.traceReads; i++ {
		o := g.fresh()
		// Half the inserts land in the subscription, half outside.
		if i%2 == 0 {
			for !inWatch(o.rect, cands) {
				o = g.fresh()
			}
		}
		start := time.Now()
		t.attempt(1)
		if err := writer.post(ctx, "/v1/insert", "application/json", updateBody(mainIndex, o)); err != nil {
			t.fail("trace watch insert: %v", err)
			continue
		}
		if !inWatch(o.rect, cands) {
			continue
		}
		at, err := w.await(o.oid, 5*time.Second)
		if t.check(err) {
			lag = append(lag, float64(at.Sub(start).Nanoseconds())/1e6)
		}
	}
	after, err := scrape(h)
	if err != nil {
		return err
	}
	stop()
	writer.close(t)
	watchConn.close(t)
	r.put(m, "watch.event_lag_ms", "ms", median(lag), len(lag))
	count := delta(before, after, "topod_watch_notify_duration_seconds_count")
	r.put(m, "watch.notify_us", "us", delta(before, after, "topod_watch_notify_duration_seconds_sum")*1e6/max(1, count), int(count))
	lbl := `{index="` + mainIndex + `"}`
	pruned := delta(before, after, "topod_watch_pruned_total"+lbl)
	seen := pruned + delta(before, after, "topod_watch_evaluated_total"+lbl) + delta(before, after, "topod_watch_skipped_total"+lbl)
	r.put(m, "watch.pruned_ratio", "ratio", pruned/max(1, seen), int(seen))
	return nil
}

// await waits for the first event naming oid.
func (w *watcher) await(oid uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		at, ok := w.arrived[oid]
		err := w.err
		w.mu.Unlock()
		switch {
		case ok:
			return at, nil
		case err != nil:
			return time.Time{}, err
		case time.Now().After(deadline):
			return time.Time{}, fmt.Errorf("no watch event for %d within %s", oid, timeout)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// traceWAL appends records one at a time to a throwaway log under the
// workload's flush policy (never for the in-memory workload, which
// logs nothing).
func traceWAL(r *runCtx, tr *tracer, m map[string]metric, nextReq func() int64) error {
	policy := wal.SyncNever
	if r.wl.durable {
		policy = wal.SyncInterval
	}
	path := filepath.Join(r.dir, "trace-wal", "probe.wal")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l, _, err := wal.Open(path, wal.Options{Policy: policy})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.opts.seed))
	n := r.size.traceWrites
	for i := 0; i < n; i++ {
		rec := wal.Record{Op: wal.OpInsert, OID: uint64(i + 1), Rect: workload.RandomRect(rng, workload.Medium)}
		tr.do("wal.append", nextReq(), 0, func() { err = l.Reserve(rec).Wait() })
		if !r.tally.check(err) {
			break
		}
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		return err
	}
	r.put(m, "wal.append_us", "us", tr.median("wal.append"), n)
	r.put(m, "wal.bytes_per_record", "bytes", float64(size)/float64(n), n)
	return nil
}
