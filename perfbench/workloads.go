package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named traffic mix.
type workloadSpec struct {
	name  string
	fsync string // flush policy of the main index, stated with every result
	run   func(r *runCtx, m map[string]metric) error
	// durable and flatBoot describe the main index for the traced run.
	durable  bool
	flatBoot bool
}

var workloads = map[string]*workloadSpec{
	"query": {
		name:     "query",
		fsync:    "interval",
		run:      runQuery,
		durable:  true,
		flatBoot: true,
	},
	"hot": {
		name:  "hot",
		fsync: "none (in-memory)",
		run:   runHot,
	},
	"ingest": {
		name:    "ingest",
		fsync:   "interval",
		run:     runIngest,
		durable: true,
	},
}

// Every end-to-end metric is reported on every workload. Where the
// timed phase does not exercise an operation class, a fixed-count
// closed-loop probe after the timed phase measures it against the
// state the workload left behind.

// metricUnits names the end-to-end metrics of the result line and
// their units. Every *_rel metric is topod's CPU time per request of a
// class in units of the reference server's (ref.go), over pairs of
// adjacent batches.
var metricUnits = map[string]string{
	"setup_s":               "s",
	"window_rel":            "ratio",
	"select_rel":            "ratio",
	"conj_rel":              "ratio",
	"knn_rel":               "ratio",
	"join_rel":              "ratio",
	"write_rel":             "ratio",
	"bulk_rel":              "ratio",
	"rss_bytes_per_object":  "bytes",
	"disk_bytes_per_object": "bytes",
}

// recordOnly names the end-to-end metrics that are measured on every
// run but printed in the record only: the wall-clock latencies, the
// read rate and the recovery time. They follow the shared machine's
// load, which moves them between runs by more than any bound a gate
// could use.
var recordOnly = map[string]string{
	"window_p50_ms": "ms",
	"window_p99_ms": "ms",
	"select_p50_ms": "ms",
	"select_p99_ms": "ms",
	"conj_p50_ms":   "ms",
	"knn_p50_ms":    "ms",
	"join_p50_ms":   "ms",
	"read_rps":      "1/s",
	"write_p50_ms":  "ms",
	"write_p99_ms":  "ms",
	"bulk_p50_ms":   "ms",
	"recover_s":     "s",
	// The wall-time ratios to the reference server (putRel).
	"window_wall_rel": "ratio",
	"select_wall_rel": "ratio",
	"conj_wall_rel":   "ratio",
	"knn_wall_rel":    "ratio",
	"join_wall_rel":   "ratio",
	"write_wall_rel":  "ratio",
	"bulk_wall_rel":   "ratio",
}

// hotReadsPerWrite is how many hot reads go between two writes. Tying
// the writes to the reads rather than to the clock keeps the share of
// cache misses the same on a slow run as on a fast one. The reads
// between two writes form one batch, paired with hotRefBatch reference
// requests.
const (
	hotReadsPerWrite = 1000
	hotRefBatch      = 100
)

// ingestWriteRate is the requests/s of the ingest writer.
const ingestWriteRate = 200.0

// inputs is the directory of the run's generated input files; like
// the data directories it is deleted when the run ends.
func (r *runCtx) inputs() string {
	dir := filepath.Join(r.dir, "inputs")
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// logPath is the file topod's output goes to.
func (r *runCtx) logPath() string { return filepath.Join(r.dir, "topod.log") }

// topodArgs is the command line of every topod the workloads start:
// an R*-tree main index (durable when dataDir is set) plus the
// in-memory overlay loaded from its generated file.
func topodArgs(dataDir, overlayPath string, extra ...string) []string {
	args := []string{"-tree", "rstar", "-bulk", "-cache-size", "256",
		"-name", mainIndex, "-data2", overlayPath, "-name2", overlayIndex}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "interval")
	}
	return append(args, extra...)
}

// settle waits for topod to go quiet before a timed phase or probe.
func (r *runCtx) settle(p *proc, phase string) {
	if !p.quiesce() {
		r.note("topod was still busy before the %s after 20s", phase)
	}
}

// start launches topod with its output in the run's log.
func (r *runCtx) start(args ...string) (*proc, error) {
	return startTopod(r.opts.topod, r.logPath(), args...)
}

// setup runs the workload's set-up steps size.setups times, each into
// a fresh data directory, and returns the last one's server together
// with the median set-up time.
func (r *runCtx) setup(m map[string]metric, once func(dataDir string) (*proc, error)) (*proc, string, error) {
	var times []float64
	var p *proc
	var dataDir string
	for i := 0; i < r.size.setups; i++ {
		if p != nil {
			if err := p.stop(); err != nil {
				return nil, "", err
			}
			_ = os.RemoveAll(dataDir)
		}
		dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		start := time.Now()
		var err error
		if p, err = once(dataDir); err != nil {
			return nil, "", err
		}
		times = append(times, elapsedSince(start))
	}
	r.put(m, "setup_s", "s", median(times), len(times))
	return p, dataDir, nil
}

// bulkLoad posts the main dataset through /v1/bulk.
func (r *runCtx) bulkLoad(p *proc, body []byte) error {
	c := newConn(p.base, "bulk-load")
	defer c.close(r.tally)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return c.post(ctx, "/v1/bulk?index="+mainIndex, "application/x-ndjson", body)
}

// backend asks /v1/indexes which backend serves the main index.
func backend(p *proc) (string, error) {
	resp, err := http.Get(p.base + "/v1/indexes")
	if err != nil {
		return "", err
	}
	defer drain(resp)
	var infos []struct {
		Name    string `json:"name"`
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return "", err
	}
	for _, in := range infos {
		if in.Name == mainIndex {
			return in.Backend, nil
		}
	}
	return "", fmt.Errorf("no %q index listed", mainIndex)
}

// recoverRuns kills topod with SIGKILL and boots it again with args,
// size.recoveries times, timing kill until /readyz answers 200.
func (r *runCtx) recoverRuns(m map[string]metric, p *proc, args []string) (*proc, error) {
	var times []float64
	for i := 0; i < r.size.recoveries; i++ {
		start := time.Now()
		p.kill()
		var err error
		if p, err = r.start(args...); err != nil {
			return nil, fmt.Errorf("reboot after kill -9: %w", err)
		}
		times = append(times, elapsedSince(start))
	}
	r.put(m, "recover_s", "s", median(times), len(times))
	return p, nil
}

// putRSS records topod's median resident set over the timed phase
// per served object.
func (r *runCtx) putRSS(m map[string]metric, s *rssSampler, objects int) error {
	rss, n, err := s.stop()
	if err != nil {
		return err
	}
	r.put(m, "rss_bytes_per_object", "bytes", rss/float64(objects), n)
	return nil
}

// putDisk stops topod cleanly and records its data directory's size
// per main-index object.
func (r *runCtx) putDisk(m map[string]metric, p *proc, dataDir string, objects int) error {
	if err := p.stop(); err != nil {
		return err
	}
	b, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	r.put(m, "disk_bytes_per_object", "bytes", b/float64(objects), 1)
	return nil
}

// putRel records a ratio series as a *_rel metric: the median pair
// ratio of CPU time, or with total set the ratio over all pairs. The
// median wall-time ratio goes to the record as its *_wall_rel
// companion.
func (r *runCtx) putRel(m map[string]metric, name string, s relSeries, total bool) {
	v := s.median()
	if total {
		v = s.total()
	}
	r.put(m, name, "ratio", v, len(s.cpu))
	r.put(m, strings.TrimSuffix(name, "_rel")+"_wall_rel", "ratio", median(s.wall), len(s.wall))
}

// putReads records the read metrics of a result, class by class: the
// latency ratios to the reference server and the latencies.
func (r *runCtx) putReads(m map[string]metric, res readResult, kinds ...opKind) {
	for _, k := range kinds {
		// A join pair holds one join per connection, and whether a
		// garbage collection falls in it splits the pairs in two
		// modes, so joins take the ratio over all pairs.
		r.putRel(m, opNames[k]+"_rel", res.rel[k], k == opJoin)
		switch k {
		case opWindow:
			r.putLatency(m, "window_p50_ms", "window_p99_ms", res.lat[k])
		case opSelect:
			r.putLatency(m, "select_p50_ms", "select_p99_ms", res.lat[k])
		case opConj:
			r.putLatency(m, "conj_p50_ms", "", res.lat[k])
		case opKNN:
			r.putLatency(m, "knn_p50_ms", "", res.lat[k])
		case opJoin:
			r.putLatency(m, "join_p50_ms", "", res.lat[k])
		}
	}
}

// runQuery: bulk-load a durable index through /v1/bulk, restart so it
// boots from its flat snapshot, then drive the read mix closed-loop on
// two connections with a fresh reference per request.
func runQuery(r *runCtx, m map[string]metric) error {
	defer killStarted()
	in := makeInputs(r.opts.seed, r.size)
	overlayPath := filepath.Join(r.inputs(), "overlay.ndjson")
	if err := writeNDJSON(overlayPath, in.overlay); err != nil {
		return err
	}
	body := ndjson(in.items)
	var args []string
	p, dataDir, err := r.setup(m, func(dataDir string) (*proc, error) {
		args = topodArgs(dataDir, overlayPath)
		p, err := r.start(args...)
		if err != nil {
			return nil, err
		}
		if err := r.bulkLoad(p, body); err != nil {
			return nil, err
		}
		if err := p.stop(); err != nil {
			return nil, err
		}
		return r.start(args...)
	})
	if err != nil {
		return err
	}
	if err := flushDir(dataDir); err != nil {
		return err
	}
	if b, err := backend(p); err != nil || b != "flat" {
		return fmt.Errorf("main index boots backend=%q (%v), want flat", b, err)
	}

	r.settle(p, "timed phase")
	mdl := newModel(itemsToObjs(in.items))
	overlay := itemsToObjs(in.overlay)
	conns := []*conn{newConn(p.base, "reader-0"), newConn(p.base, "reader-1")}
	rs := r.refConns(2, "ref")
	before, err := conns[0].metrics(context.Background())
	if err != nil {
		return err
	}
	rss := sampleRSS(p)
	until := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	res := runRounds(p, conns, rs, []*mixer{newMixer(in, 0), newMixer(in, 1)}, queryRound, queryJoinEvery, 0, until,
		readLoopCfg{sampleEvery: 64, maxSamples: 1, joinSample: joinSample(overlay)}, r.tally)
	rs.close(r.tally)
	if err := r.putRSS(m, rss, len(in.items)+len(in.overlay)); err != nil {
		return err
	}
	after, err := conns[0].metrics(context.Background())
	if err != nil {
		return err
	}
	for _, c := range conns {
		c.close(r.tally)
	}
	nodeAccessCheck(r.tally, before, after, res.wireNA)
	checkReads(r.tally, mdl, overlay, res.samples)
	r.putReads(m, res, opWindow, opSelect, opConj, opKNN, opJoin)
	r.put(m, "read_rps", "1/s", res.rps(), res.done)
	r.note("query: %d reads in %.2fs, %d of %d conjunctions short-circuited", res.done, res.elapsed, res.shortCut, len(res.lat[opConj].ms))

	// Crash an idle flat-booted server: the reboot is the flat boot.
	if p, err = r.recoverRuns(m, p, args); err != nil {
		return err
	}
	r.settle(p, "write probe")
	r.putWrites(m, p, mdl, series{})
	return r.putDisk(m, p, dataDir, len(mdl))
}

// putWrites measures the write metrics with closed-loop probes: single
// writes (the write p50 unless the timed phase measured enough writes
// of its own) and small batches.
func (r *runCtx) putWrites(m map[string]metric, p *proc, mdl model, timed series) {
	probe, rel := writeProbe(r, p, r.size.probeWrites, mdl)
	p50 := probe
	if len(timed.ms) >= minP50Samples {
		p50 = timed
	}
	r.putRel(m, "write_rel", rel, true)
	r.put(m, "write_p50_ms", "ms", p50.p50(), len(p50.ms))
	r.put(m, "write_p99_ms", "ms", probe.p99(), len(probe.ms))
	lat, bulkRel := bulkProbe(r, p, r.size.probeBulks, mdl)
	r.putRel(m, "bulk_rel", bulkRel, true)
	r.putLatency(m, "bulk_p50_ms", "", lat)
}

// writeLog is the ordered list of acknowledged writes of one writer,
// with a sequence number readers use to tell whether a write was in
// flight while they ran (odd: a write is in flight). Only the writer
// appends to acks; they are read once it has finished.
type writeLog struct {
	seq  atomic.Int64
	acks []writeAck
}

type writeAck struct {
	del bool
	o   obj
}

func (a writeAck) apply(m model) {
	if a.del {
		delete(m, a.o.oid)
	} else {
		m[a.o.oid] = a.o.rect
	}
}

// runHot: one closed-loop reader over a small Zipf-weighted pool of
// broad queries, beside one writer on its own connection that sends a
// write after every hotReadsPerWrite reads; each write invalidates the
// whole cache for the index.
func runHot(r *runCtx, m map[string]metric) error {
	defer killStarted()
	in := makeInputs(r.opts.seed, r.size)
	overlayPath := filepath.Join(r.inputs(), "overlay.ndjson")
	mainPath := filepath.Join(r.inputs(), "main.ndjson")
	if err := writeNDJSON(overlayPath, in.overlay); err != nil {
		return err
	}
	body := ndjson(in.items)
	if err := os.WriteFile(mainPath, body, 0o644); err != nil {
		return err
	}
	p, _, err := r.setup(m, func(string) (*proc, error) {
		p, err := r.start(topodArgs("", overlayPath)...)
		if err != nil {
			return nil, err
		}
		return p, r.bulkLoad(p, body)
	})
	if err != nil {
		return err
	}

	r.settle(p, "timed phase")
	pool := hotPool(in, r.size.hotPool)
	reader, writer := newConn(p.base, "hot-reader"), newConn(p.base, "hot-writer")
	before, err := reader.metrics(context.Background())
	if err != nil {
		return err
	}
	var wl writeLog
	var reads readResult
	type hotSample struct {
		s     sampledRead
		state int64 // acknowledged writes when the read ran
	}
	var samples []hotSample
	rs := r.refConns(1, "ref")
	rss := sampleRSS(p)
	until := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	// The reader hands the writer one token per hotReadsPerWrite reads;
	// the writer sends one write per token while the reader goes on.
	tokens := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(tokens)
		rng := rand.New(rand.NewSource(r.opts.seed*31 + 7))
		zipf := rand.NewZipf(rng, 1.3, 2, uint64(len(pool)-1))
		start := time.Now()
		pair, ok := startPair(p), 0
		for i := 0; time.Now().Before(until); i++ {
			if i > 0 && i%hotReadsPerWrite == 0 {
				pair.end(&reads.rel[opWindow], ok, rs, refHot, hotRefBatch, r.tally)
				tokens <- struct{}{}
				pair, ok = startPair(p), 0
			}
			op := pool[zipf.Uint64()]
			keep := i%64 == 0 && len(samples) < 200
			s0 := wl.seq.Load()
			r.tally.attempt(1)
			s, na, err := readOnce(reader, op, keep, nil, &reads.lat[opWindow])
			if err != nil {
				r.tally.fail("hot read: %v", err)
				continue
			}
			reads.done++
			ok++
			reads.wireNA += na
			// Only answers no write overlapped have a known model state.
			if s1 := wl.seq.Load(); keep && s0 == s1 && s0%2 == 0 {
				samples = append(samples, hotSample{s: s, state: s0 / 2})
			}
		}
		reads.elapsed = time.Since(start).Seconds()
	}()
	var writeLat series
	g := newWriteGen(r.opts.seed, 1, firstWriteOID)
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for range tokens {
			del := isDelete(i)
			i++
			var o obj
			path := "/v1/insert"
			if del {
				var ok bool
				if o, ok = g.remove(); !ok {
					continue
				}
				path = "/v1/delete"
			} else {
				o = g.insert()
			}
			wl.seq.Add(1)
			r.tally.attempt(1)
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			start := time.Now()
			err := writer.post(ctx, path, "application/json", updateBody(mainIndex, o))
			cancel()
			if err != nil {
				r.tally.fail("hot write %s: %v", path, err)
			} else {
				writeLat.add(start)
				wl.acks = append(wl.acks, writeAck{del: del, o: o})
			}
			wl.seq.Add(1)
		}
	}()
	wg.Wait()
	rs.close(r.tally)
	if err := r.putRSS(m, rss, len(in.items)+len(in.overlay)); err != nil {
		return err
	}
	after, err := reader.metrics(context.Background())
	if err != nil {
		return err
	}
	reader.close(r.tally)
	writer.close(r.tally)

	hits := delta(before, after, "topod_cache_hits_total")
	misses := delta(before, after, "topod_cache_misses_total")
	r.tally.attempt(1)
	if int(hits+misses) != reads.done {
		r.tally.fail("cache counters: %v hits + %v misses for %d reads", hits, misses, reads.done)
	}
	r.note("hot: %d reads (hit ratio %.3f), %d writes", reads.done, hits/max(1, hits+misses), len(writeLat.ms))
	r.putReads(m, reads, opWindow)
	r.put(m, "read_rps", "1/s", reads.rps(), reads.done)

	// Check the sampled answers against the model at their state.
	mdl := newModel(itemsToObjs(in.items))
	applied := int64(0)
	overlay := itemsToObjs(in.overlay)
	for _, hs := range samples {
		for ; applied < hs.state; applied++ {
			wl.acks[applied].apply(mdl)
		}
		checkReads(r.tally, mdl, overlay, []sampledRead{hs.s})
	}
	for ; applied < int64(len(wl.acks)); applied++ {
		wl.acks[applied].apply(mdl)
	}

	// An in-memory server comes back by reloading its source file. The
	// probes run on that freshly booted server, whose state is the
	// source file's, rather than on a heap shaped by the timed phase.
	p, err = r.recoverRuns(m, p, topodArgs("", overlayPath, "-data", mainPath))
	if err != nil {
		return err
	}
	r.settle(p, "probes")
	mdl = newModel(itemsToObjs(in.items))
	probe, err := readProbe(r, p, in, mdl, overlay, []opKind{opSelect, opConj, opKNN, opJoin})
	if err != nil {
		return err
	}
	r.putReads(m, probe, opSelect, opConj, opKNN, opJoin)
	r.putWrites(m, p, mdl, writeLat)
	if err := p.stop(); err != nil {
		return err
	}
	src, err := os.Stat(mainPath)
	if err != nil {
		return err
	}
	r.put(m, "disk_bytes_per_object", "bytes", float64(src.Size())/float64(len(in.items)), 1)
	return nil
}

// openLoop calls send for request i at start + i/rate until the
// deadline, never earlier than due. send measures its latency from
// from: the due time when the previous request was still running then
// (the wait it imposed counts), else the actual send time, so the
// generator's own wake-up delay after sleeping does not.
func openLoop(until time.Time, rate float64, send func(i int, due, from time.Time)) {
	start := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(until) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		from := due
		if prevDone.Before(due) {
			from = time.Now()
		}
		send(i, due, from)
		prevDone = time.Now()
	}
}
