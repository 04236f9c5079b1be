package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mbrtopo/internal/geom"
)

// The reference server is a yardstick for the shared machine's speed.
// It is this binary run as `perfbench -ref ADDR`: an HTTP server with
// topod's request shape (read a JSON or NDJSON body, answer NDJSON
// lines) and no work in between, under the same GOMAXPROCS as topod.
// Every timed batch of requests to topod is followed by a batch of
// reference requests on as many connections, and each gated cost is
// topod's CPU time per request over the reference server's, taken
// over those pairs of adjacent batches. On the reference machine the
// hypervisor's steal and the other guests' load move every wall-clock
// time of a run by 20 to 50% from one minute to the next, and CPU time
// by nearly as much; CPU time leaves the steal out, and two batches a
// few milliseconds apart see the same machine, so their ratio keeps
// what topod costs and drops most of what the host did.

// refLine is the line the reference server repeats: a match line of
// topod's length.
var refLine = []byte(`{"oid":12345678,"rect":[123.456789,234.567891,345.678912,456.789123]}` + "\n")

// serveRef runs the reference server: /readyz answers 200, and POST
// /ref?lines=n reads the body to EOF and answers n refLines and a
// stats line.
func serveRef(addr string) error {
	var bodies sync.Map // lines → answer
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/ref", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.URL.Query().Get("lines"))
		ans, ok := bodies.Load(n)
		if !ok {
			b := append(bytes.Repeat(refLine, n), `{"stats":{"node_accesses":0}}`+"\n"...)
			ans, _ = bodies.LoadOrStore(n, b)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(ans.([]byte))
	})
	return http.ListenAndServe(addr, mux)
}

// startRef starts the reference server for a run.
func (r *runCtx) startRef() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	r.ref, err = startProc(exe, filepath.Join(r.dir, "ref.log"), func(addr string) []string {
		return []string{"-ref", addr}
	})
	return err
}

// refReq is one kind of reference request: its body and how many
// lines the answer has. Each stands beside one class of topod request.
type refReq struct {
	body  []byte
	lines int
}

var (
	refSmall = refReq{body: mustJSON(queryReq{Index: mainIndex, Relations: []string{"covered_by"},
		Ref: []float64{123.456, 234.567, 145.678, 256.789}}), lines: 2}
	refRead = [numOpKinds]refReq{
		opWindow: {body: refSmall.body, lines: 200},
		opSelect: refSmall,
		opConj:   refSmall,
		opKNN:    refSmall,
		opJoin:   {body: refSmall.body, lines: 2000},
	}
	refHot   = refReq{body: refSmall.body, lines: 16}
	refWrite = refReq{body: updateBody(mainIndex, refObj(0)), lines: 0}
	refBulk  = refReq{body: bulkBody(refObjs(bulkProbeSize)), lines: 0}
)

// refObj is a fixed object for the bodies of reference writes.
func refObj(i int) obj {
	x := 123.456 + float64(i)
	return obj{oid: firstWriteOID + uint64(i), rect: geom.R(x, 234.567, x+22.222, 256.789)}
}

func refObjs(n int) []obj {
	objs := make([]obj, n)
	for i := range objs {
		objs[i] = refObj(i)
	}
	return objs
}

// refs is a set of connections to the reference server.
type refs struct {
	p     *proc
	conns []*conn
}

// refConns opens n connections to the run's reference server.
func (r *runCtx) refConns(n int, name string) refs {
	rs := refs{p: r.ref, conns: make([]*conn, n)}
	for i := range rs.conns {
		rs.conns[i] = newConn(r.ref.base, fmt.Sprintf("%s-%d", name, i))
	}
	return rs
}

func (rs refs) close(t *tally) { closeAll(rs.conns, t) }

func closeAll(cs []*conn, t *tally) {
	for _, c := range cs {
		c.close(t)
	}
}

// batch sends n reference requests of kind q closed-loop on each
// connection at once and returns the wall time and the reference
// server's CPU time per request.
func (rs refs) batch(q refReq, n int, t *tally) (wall, cpu time.Duration, err error) {
	path := "/ref?lines=" + strconv.Itoa(q.lines)
	cpu0, err := rs.p.cpuTime()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range rs.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				if err := c.post(ctx, path, "application/json", q.body); err != nil {
					t.fail("reference request: %v", err)
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	cpu1, err := rs.p.cpuTime()
	reqs := time.Duration(n * len(rs.conns))
	return wall / reqs, (cpu1 - cpu0) / reqs, err
}

// relSeries holds, for each pair of adjacent batches, topod's CPU time
// and wall time per request over the reference server's, and the CPU
// time and requests summed over all pairs on either side.
type relSeries struct {
	cpu, wall        []float64
	topodCPU, refCPU time.Duration
	topodOps, refOps int
}

// median is the median CPU-time ratio of the pairs.
func (s relSeries) median() float64 { return median(s.cpu) }

// total is the ratio of the two sides' CPU time per request over all
// pairs: unlike the median it counts work that lands in a few pairs
// only, such as a checkpoint every 1,024 mutations.
func (s relSeries) total() float64 {
	if s.topodOps == 0 || s.refOps == 0 || s.refCPU == 0 {
		return 0
	}
	return float64(s.topodCPU) / float64(s.topodOps) / (float64(s.refCPU) / float64(s.refOps))
}

func (s *relSeries) merge(o relSeries) {
	s.cpu = append(s.cpu, o.cpu...)
	s.wall = append(s.wall, o.wall...)
	s.topodCPU += o.topodCPU
	s.refCPU += o.refCPU
	s.topodOps += o.topodOps
	s.refOps += o.refOps
}

// refMinBatch is the fewest reference requests a connection sends per
// pair, so that the reference side of a pair behind a few long
// requests (joins, windows) is not a single short measurement.
const refMinBatch = 40

// pairTimer measures one batch of topod requests; end pairs it with
// the reference batch that follows.
type pairTimer struct {
	p     *proc
	start time.Time
	cpu0  time.Duration
	err   error
}

func startPair(p *proc) pairTimer {
	cpu0, err := p.cpuTime()
	return pairTimer{p: p, start: time.Now(), cpu0: cpu0, err: err}
}

// end closes topod's batch of ops requests, runs the matching
// reference batch of perConn (at least refMinBatch) requests per
// connection of rs, and adds the pair to s.
func (pt pairTimer) end(s *relSeries, ops int, rs refs, q refReq, perConn int, t *tally) {
	if ops == 0 || len(rs.conns) == 0 {
		return
	}
	wall := time.Since(pt.start) / time.Duration(ops)
	cpu1, err := pt.p.cpuTime()
	perConn = max(perConn, refMinBatch)
	refWall, refCPU, refErr := rs.batch(q, perConn, t)
	if pt.err != nil || err != nil || refErr != nil || refCPU <= 0 || refWall <= 0 {
		return // a process ended under the pair; its checks report it
	}
	cpu := cpu1 - pt.cpu0
	s.cpu = append(s.cpu, float64(cpu/time.Duration(ops))/float64(refCPU))
	s.wall = append(s.wall, float64(wall)/float64(refWall))
	s.topodCPU += cpu
	s.topodOps += ops
	s.refCPU += refCPU * time.Duration(perConn*len(rs.conns))
	s.refOps += perConn * len(rs.conns)
}
