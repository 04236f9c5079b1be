package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// Ingest write mix, by request count; the rest are single inserts.
// About 500 mutations/s, so a run of 20s spans about 10 checkpoints. A
// heavier mix queues writes behind checkpoints and makes every write
// latency swing with the disk.
const (
	ingestDeleteShare = 0.25
	ingestBulkShare   = 0.10
	ingestBulkSize    = 16
)

// watchRef and watchRels are the ingest subscriber's continuous query:
// the centre of the workspace, where about a third of the writes land.
var (
	watchRef  = geom.R(300, 300, 700, 700)
	watchRels = []string{"not_disjoint"}
)

// watcher follows one /v1/watch stream: it replays enter/exit events
// as set operations and timestamps each event's arrival.
type watcher struct {
	mu      sync.Mutex
	members map[uint64]bool
	arrived map[uint64]time.Time // first event per OID
	events  int
	end     string
	err     error
}

// watchStream subscribes and consumes the stream until ctx ends.
// ready is closed once the subscription's header line arrived.
func watchStream(ctx context.Context, c *conn, initial []uint64, ready chan<- struct{}) *watcher {
	w := &watcher{members: map[uint64]bool{}, arrived: map[uint64]time.Time{}}
	for _, oid := range initial {
		w.members[oid] = true
	}
	body := mustJSON(struct {
		Index     string    `json:"index"`
		Relations []string  `json:"relations"`
		Ref       []float64 `json:"ref"`
		Buffer    int       `json:"buffer"`
	}{mainIndex, watchRels, wireRect(watchRef), 1 << 16})
	resp, err := c.do(ctx, "POST", "/v1/watch", "application/json", body)
	if err != nil {
		w.err = err
		close(ready)
		return w
	}
	if resp.StatusCode != 200 {
		w.err = statusError(resp, "watch")
		close(ready)
		return w
	}
	go func() {
		defer drain(resp)
		sc := bufio.NewScanner(resp.Body)
		first := true
		for sc.Scan() {
			now := time.Now()
			var line struct {
				Watch *json.RawMessage `json:"watch"`
				Event string           `json:"event"`
				OID   uint64           `json:"oid"`
				End   string           `json:"end"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				w.setErr(fmt.Errorf("watch: bad line %q", sc.Bytes()))
				break
			}
			if first {
				first = false
				if line.Watch == nil {
					w.setErr(fmt.Errorf("watch: first line %q is not a header", sc.Bytes()))
					break
				}
				close(ready)
				continue
			}
			w.mu.Lock()
			switch line.Event {
			case "enter":
				w.members[line.OID] = true
			case "exit":
				delete(w.members, line.OID)
			}
			if line.Event != "" {
				w.events++
				if _, ok := w.arrived[line.OID]; !ok {
					w.arrived[line.OID] = now
				}
			}
			if line.End != "" {
				w.end = line.End
			}
			w.mu.Unlock()
		}
		if first {
			close(ready)
		}
	}()
	return w
}

func (w *watcher) setErr(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

// converge waits until the replayed membership equals want, or the
// timeout passes, and reports the last difference.
func (w *watcher) converge(want []uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		got := make([]uint64, 0, len(w.members))
		for oid := range w.members {
			got = append(got, oid)
		}
		err, end := w.err, w.end
		w.mu.Unlock()
		if err != nil {
			return err
		}
		if end != "" {
			return fmt.Errorf("watch stream ended early: %s", end)
		}
		diff := sameOIDs(got, want)
		if diff == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("watch replay differs from the model: %v", diff)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// walTail is how many records the WAL holds when ingest crashes topod.
const walTail = 512

// fixTail writes 16-record batches until a checkpoint rotates the WAL,
// then walTail more records, so every run's recovery replays the same
// number of records.
func (r *runCtx) fixTail(p *proc, mdl model) error {
	c := newConn(p.base, "tail-writer")
	defer c.close(r.tally)
	ctx := context.Background()
	checkpoints := func() (float64, error) {
		v, err := c.metrics(ctx)
		return v["topod_checkpoints_total"], err
	}
	start, err := checkpoints()
	if err != nil {
		return err
	}
	g := newWriteGen(r.opts.seed, 3, firstWriteOID+7_000_000)
	send := func() error {
		objs := g.batch(bulkProbeSize)
		r.tally.attempt(1)
		if err := c.post(ctx, "/v1/bulk?index="+mainIndex, "application/x-ndjson", bulkBody(objs)); err != nil {
			r.tally.fail("tail batch: %v", err)
			return err
		}
		for _, o := range objs {
			mdl[o.oid] = o.rect
		}
		return nil
	}
	for n := start; n == start; {
		if err := send(); err != nil {
			return err
		}
		if n, err = checkpoints(); err != nil {
			return err
		}
	}
	for i := 0; i < walTail/bulkProbeSize; i++ {
		if err := send(); err != nil {
			return err
		}
	}
	return nil
}

// inWatch reports whether a rectangle is a member of the subscription.
func inWatch(r geom.Rect, cands mbr.ConfigSet) bool { return cands.Has(mbr.ConfigOf(r, watchRef)) }

// runIngest: bulk-load a durable index (-fsync interval) through
// /v1/bulk, then drive one open-loop writer with a seeded mix of
// inserts, deletes of earlier inserts and small bulk batches while one
// watch subscriber stays connected; finally kill -9, reboot, and check
// the recovered state.
func runIngest(r *runCtx, m map[string]metric) error {
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
		return p, r.bulkLoad(p, body)
	})
	if err != nil {
		return err
	}
	if err := flushDir(dataDir); err != nil {
		return err
	}
	r.settle(p, "timed phase")

	mdl := newModel(itemsToObjs(in.items))
	wcands := mbr.CandidatesSet(parseSet(watchRels))
	watchConn, writer := newConn(p.base, "watch"), newConn(p.base, "ingest-writer")
	wctx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	ready := make(chan struct{})
	w := watchStream(wctx, watchConn, bruteQuery(mdl.objects(), parseSet(watchRels), watchRef), ready)
	<-ready
	if w.err != nil {
		return w.err
	}

	g := newWriteGen(r.opts.seed, 2, firstWriteOID)
	rng := rand.New(rand.NewSource(r.opts.seed*17 + 3))
	var singleLat, bulkLat series
	var late []float64
	sent := map[uint64]time.Time{} // send time of each watched insert
	rss := sampleRSS(p)
	records := 0
	until := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	openLoop(until, ingestWriteRate, func(i int, due, from time.Time) {
		u := rng.Float64()
		var objs []obj
		del := false
		path, ctype := "/v1/insert", "application/json"
		var body []byte
		switch {
		case u < ingestBulkShare:
			objs = g.batch(ingestBulkSize)
			path, ctype, body = "/v1/bulk?index="+mainIndex, "application/x-ndjson", bulkBody(objs)
		case u < ingestBulkShare+ingestDeleteShare && len(g.live) > 0:
			o, _ := g.remove()
			objs, del, path, body = []obj{o}, true, "/v1/delete", updateBody(mainIndex, o)
		default:
			o := g.insert()
			objs, body = []obj{o}, updateBody(mainIndex, o)
		}
		now := time.Now()
		late = append(late, since(due))
		if !del {
			for _, o := range objs {
				if inWatch(o.rect, wcands) {
					sent[o.oid] = now
				}
			}
		}
		r.tally.attempt(1)
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		err := writer.post(ctx, path, ctype, body)
		cancel()
		if err != nil {
			r.tally.fail("ingest %s: %v", path, err)
			return
		}
		if len(objs) > 1 {
			bulkLat.add(from)
		} else {
			singleLat.add(from)
		}
		records += len(objs)
		for _, o := range objs {
			if del {
				delete(mdl, o.oid)
			} else {
				mdl[o.oid] = o.rect
			}
		}
	})
	if err := r.putRSS(m, rss, len(mdl)+len(in.overlay)); err != nil {
		return err
	}
	writer.close(r.tally)
	r.putLatency(m, "write_p50_ms", "write_p99_ms", singleLat)
	r.putLatency(m, "bulk_p50_ms", "", bulkLat)

	// The watch stream, replayed as set operations, must reach the
	// model's membership of the subscription.
	objs := mdl.objects()
	r.tally.check(w.converge(bruteQuery(objs, parseSet(watchRels), watchRef), 10*time.Second))
	stopWatch()
	watchConn.close(r.tally)
	var lag []float64
	w.mu.Lock()
	for oid, at := range w.arrived {
		if s, ok := sent[oid]; ok {
			lag = append(lag, float64(at.Sub(s).Nanoseconds())/1e6)
		}
	}
	events := w.events
	w.mu.Unlock()
	r.note("ingest: %d single writes, %d bulk batches, %d records, generator late p50 %.3f ms p99 %.3f ms max %.3f ms; %d watch events, send-to-event lag p50 %.3f ms over %d inserts",
		len(singleLat.ms), len(bulkLat.ms), records, percentile(late, 0.5), percentile(late, 0.99), slices.Max(append(late, 0)), events, percentile(lag, 0.5), len(lag))

	// Crash with a WAL tail of the same length on every run.
	if err := r.fixTail(p, mdl); err != nil {
		return err
	}
	if p, err = r.recoverRuns(m, p, args); err != nil {
		return err
	}
	c := newConn(p.base, "recovery-check")
	got, err := fullState(c)
	c.close(r.tally)
	if r.tally.check(err) {
		want := make([]uint64, 0, len(mdl))
		for oid := range mdl {
			want = append(want, oid)
		}
		slices.Sort(want)
		r.tally.attempt(1)
		if err := sameOIDs(got, want); err != nil {
			r.tally.fail("recovered state after kill -9: %v", err)
		}
	}
	if err := r.putDisk(m, p, dataDir, len(mdl)); err != nil {
		return err
	}

	// The probes run on a clean restart, which serves the flat snapshot:
	// reads of the paged working copy go through the page file and swing
	// with the shared disk.
	if p, err = r.start(args...); err != nil {
		return err
	}
	if err := flushDir(dataDir); err != nil {
		return err
	}
	r.settle(p, "probes")
	probe, err := readProbe(r, p, in, mdl, itemsToObjs(in.overlay), []opKind{opWindow, opSelect, opConj, opKNN, opJoin})
	if err != nil {
		return err
	}
	r.putReads(m, probe, opWindow, opSelect, opConj, opKNN, opJoin)
	r.put(m, "read_rps", "1/s", probe.rps(), probe.done)
	// The timed phase's latencies follow the machine; the gated write
	// ratios come from closed-loop probes on the durable index.
	_, writeRel := writeProbe(r, p, r.size.probeWrites, mdl)
	r.putRel(m, "write_rel", writeRel, true)
	_, bulkRel := bulkProbe(r, p, r.size.probeBulks, mdl)
	r.putRel(m, "bulk_rel", bulkRel, true)
	return p.stop()
}
