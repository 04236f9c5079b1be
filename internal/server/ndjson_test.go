package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// jsonQueryLine renders a match line with encoding/json, the reference
// the append encoder must reproduce byte for byte.
func jsonQueryLine(t *testing.T, oid uint64, r geom.Rect) []byte {
	t.Helper()
	rect := RectToWire(r)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(QueryLine{OID: &oid, Rect: &rect}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonJoinLine is jsonQueryLine for a join pair line.
func jsonJoinLine(t *testing.T, lo, ro uint64, lr, rr geom.Rect) []byte {
	t.Helper()
	lw, rw := RectToWire(lr), RectToWire(rr)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(JoinLine{LeftOID: &lo, RightOID: &ro, LeftRect: &lw, RightRect: &rw}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkLines compares both line shapes for one set of values.
func checkLines(t *testing.T, lo, ro uint64, lr, rr geom.Rect) {
	t.Helper()
	got, err := appendQueryLine(nil, lo, lr)
	if err != nil {
		t.Fatalf("appendQueryLine(%d, %v): %v", lo, lr, err)
	}
	if want := jsonQueryLine(t, lo, lr); !bytes.Equal(got, want) {
		t.Fatalf("query line\n got %s\nwant %s", got, want)
	}
	got, err = appendJoinLine(nil, lo, ro, lr, rr)
	if err != nil {
		t.Fatalf("appendJoinLine: %v", err)
	}
	if want := jsonJoinLine(t, lo, ro, lr, rr); !bytes.Equal(got, want) {
		t.Fatalf("join line\n got %s\nwant %s", got, want)
	}
}

func rectOf(v [4]float64) geom.Rect {
	return geom.Rect{Min: geom.Point{X: v[0], Y: v[1]}, Max: geom.Point{X: v[2], Y: v[3]}}
}

// TestAppendLinesGoldenEdges renders the float values where
// encoding/json switches format or rounds specially, their negatives
// and neighbours, and the extreme OIDs.
func TestAppendLinesGoldenEdges(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, 0.1, 1e-6, 1e-7, 1e20, 1e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		0x1p-1022, // smallest normal
		123456789.125, 1.0000000000000002, 5e-324, 9.999999999999999e20,
	}
	var vals []float64
	for _, e := range edges {
		for _, v := range []float64{e, -e} {
			vals = append(vals, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	oids := []uint64{0, 1, 9, 10, math.MaxUint32, 1 << 53, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for i, v := range vals {
		if math.IsInf(v, 0) {
			continue // Nextafter(±MaxFloat64) overflows
		}
		w := vals[(i+1)%len(vals)]
		if math.IsInf(w, 0) {
			w = 0
		}
		oid := oids[i%len(oids)]
		checkLines(t, oid, oids[(i+3)%len(oids)],
			rectOf([4]float64{v, w, -v, v}), rectOf([4]float64{w, v, v, -w}))
	}
}

// TestAppendLinesGoldenRandom renders seeded random finite float64 bit
// patterns (all exponents, subnormals included), workload-like decimal
// coordinates, and random OIDs.
func TestAppendLinesGoldenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randFloat := func() float64 {
		for {
			var f float64
			switch rng.Intn(3) {
			case 0:
				f = math.Float64frombits(rng.Uint64())
			case 1:
				f = rng.Float64() * 1000
			default:
				// Near the 1e-6 and 1e21 format switches.
				f = []float64{1e-6, 1e21}[rng.Intn(2)] * (1 + (rng.Float64()-0.5)*1e-12)
			}
			if !math.IsInf(f, 0) && !math.IsNaN(f) {
				return f
			}
		}
	}
	randRect := func() geom.Rect {
		return rectOf([4]float64{randFloat(), randFloat(), randFloat(), randFloat()})
	}
	for i := 0; i < 20000; i++ {
		checkLines(t, rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64(), randRect(), randRect())
	}
}

// TestAppendLinesRefuseNonFinite: a coordinate encoding/json refuses
// is refused here too, with the same error text, and leaves the slice
// as it was.
func TestAppendLinesRefuseNonFinite(t *testing.T) {
	prefix := []byte(`{"oid":1,"rect":[1,2,3,4]}` + "\n")
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		r := rectOf([4]float64{0, 0, bad, 1})
		rect := RectToWire(r)
		oid := uint64(7)
		wantErr := json.NewEncoder(&bytes.Buffer{}).Encode(QueryLine{OID: &oid, Rect: &rect})
		if wantErr == nil {
			t.Fatalf("encoding/json accepted %v", bad)
		}
		got, err := appendQueryLine(append([]byte(nil), prefix...), oid, r)
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || err.Error() != wantErr.Error() {
			t.Fatalf("appendQueryLine(%v) error %v, want %v", bad, err, wantErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("appendQueryLine(%v) left %q, want the prefix unchanged", bad, got)
		}
		if got, err = appendJoinLine(append([]byte(nil), prefix...), 1, 2, geom.R(0, 0, 1, 1), r); err == nil || !bytes.Equal(got, prefix) {
			t.Fatalf("appendJoinLine(%v) = %q, %v; want the prefix and an error", bad, got, err)
		}
	}
}

// streamOrder runs the handler's traversal in process and returns the
// matches in the order the stream delivers them.
func streamOrder(t *testing.T, inst *Instance, rels topo.Set, ref geom.Rect, limit int) ([]query.Match, query.Stats) {
	t.Helper()
	var ms []query.Match
	stats, err := inst.ReadProc().Stream(context.Background(), rels, ref, limit, func(m query.Match) bool {
		ms = append(ms, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms, stats
}

// wantBody renders matches plus the stats line with encoding/json.
func wantBody(t *testing.T, ms []query.Match, stats query.Stats) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range ms {
		buf.Write(jsonQueryLine(t, m.OID, m.Rect))
	}
	ws := StatsToWire(stats)
	if err := json.NewEncoder(&buf).Encode(QueryLine{Stats: &ws}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryStreamSpansChunks checks answers several chunks long against
// encoding/json: a cached one whose hit must replay the miss's bytes,
// and one too broad to cache, whose writer stops keeping lines
// mid-stream.
func TestQueryStreamSpansChunks(t *testing.T) {
	srv, ts, d := newTestServer(t, Config{CacheSize: 8}, 6000, index.KindRStar)
	inst, err := srv.instance("rstar")
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Queries[0]
	for _, limit := range []int{3000, 0} {
		req := QueryRequest{
			Relations: []string{"disjoint"},
			Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
			Limit:     limit,
		}
		ms, stats := streamOrder(t, inst, topo.NewSet(topo.Disjoint), ref, limit)
		want := wantBody(t, ms, stats)
		if len(want) < 4*chunkSize {
			t.Fatalf("limit %d: answer of %d bytes spans too few chunks", limit, len(want))
		}
		hits0, _, _ := srv.cache.counters()
		miss := rawQuery(t, ts.URL, req)
		if !bytes.Equal(miss, want) {
			t.Fatalf("limit %d: body (%d bytes) differs from encoding/json (%d bytes)", limit, len(miss), len(want))
		}
		hit := rawQuery(t, ts.URL, req)
		if !bytes.Equal(hit, miss) {
			t.Fatalf("limit %d: second response differs from the first", limit)
		}
		hits, _, _ := srv.cache.counters()
		cacheable := len(ms) <= maxCachedMatches
		if cacheable != (hits == hits0+1) {
			t.Fatalf("limit %d: %d matches (cacheable %v) but cache hits went %d -> %d",
				limit, len(ms), cacheable, hits0, hits)
		}
	}
}

// TestQueryStreamErrorAfterMatches stores one object with an infinite
// coordinate at the far right of the data, so a disjoint query renders
// several chunks of matches before it reaches the object encoding/json
// cannot render. The body must be every match before it, then the
// error line, and nothing else.
func TestQueryStreamErrorAfterMatches(t *testing.T) {
	d := workload.NewDataset(workload.Medium, 6000, 1, 1995)
	items := append([]index.Item(nil), d.Items...)
	items = append(items, index.Item{Rect: geom.R(2e6, 0, math.Inf(1), 10), OID: 999999})
	srv := New(Config{})
	inst, err := srv.AddIndex(IndexSpec{Name: "inf", Kind: index.KindRStar, PageSize: 512}, items)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ref := d.Queries[0]
	var before []query.Match
	found := false
	_, err = inst.ReadProc().Stream(context.Background(), topo.NewSet(topo.Disjoint), ref, 0, func(m query.Match) bool {
		if m.OID == 999999 {
			found = true
			return false
		}
		before = append(before, m)
		return true
	})
	if err != nil || !found {
		t.Fatalf("traversal did not reach the infinite object (err %v)", err)
	}
	var want bytes.Buffer
	for _, m := range before {
		want.Write(jsonQueryLine(t, m.OID, m.Rect))
	}
	if want.Len() < 2*chunkSize {
		t.Fatalf("only %d bytes precede the bad object; the test needs several chunks", want.Len())
	}
	rect := RectToWire(geom.R(2e6, 0, math.Inf(1), 10))
	oid := uint64(999999)
	encErr := json.NewEncoder(&bytes.Buffer{}).Encode(QueryLine{OID: &oid, Rect: &rect})
	if err := json.NewEncoder(&want).Encode(QueryLine{Error: encErr.Error()}); err != nil {
		t.Fatal(err)
	}
	got := rawQuery(t, ts.URL, QueryRequest{
		Index:     "inf",
		Relations: []string{"disjoint"},
		Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
	})
	if !bytes.Equal(got, want.Bytes()) {
		sc := bufio.NewScanner(bytes.NewReader(got))
		sc.Buffer(nil, 1<<20)
		last := ""
		for sc.Scan() {
			last = sc.Text()
		}
		t.Fatalf("body of %d bytes (last line %q) differs from %d expected bytes", len(got), last, want.Len())
	}
	if !strings.Contains(string(got), "unsupported value") {
		t.Fatal("no error line in the body")
	}
}

// chunkRecorder records the size of every Write and counts Flushes.
type chunkRecorder struct {
	hdr     http.Header
	body    bytes.Buffer
	writes  []int
	flushes int
}

func (c *chunkRecorder) Header() http.Header { return c.hdr }
func (c *chunkRecorder) WriteHeader(int)     {}
func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.body.Write(p)
}
func (c *chunkRecorder) Flush() { c.flushes++ }

// TestLineWriterFixedChunks: lines reach the ResponseWriter in writes
// of exactly chunkSize bytes, the remainder in one final write, and
// the stream is flushed once — in both the keeping and the dropping
// mode, and when keeping stops mid-stream.
func TestLineWriterFixedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mode := range []string{"drop", "keep", "keep-then-drop"} {
		rec := &chunkRecorder{hdr: http.Header{}}
		lw := newLineWriter(rec, mode != "drop")
		var want bytes.Buffer
		const n = 5000
		for i := 0; i < n; i++ {
			r := geom.R(rng.Float64(), rng.Float64(), 1+rng.Float64(), 1+rng.Float64())
			if err := lw.appendMatch(uint64(i), r); err != nil {
				t.Fatal(err)
			}
			want.Write(jsonQueryLine(t, uint64(i), r))
			if mode == "keep-then-drop" && i == n/2 {
				lw.keep = false
			}
			if err := lw.spill(); err != nil {
				t.Fatal(err)
			}
		}
		if mode == "keep" && !bytes.Equal(lw.buf, want.Bytes()) {
			t.Fatalf("%s: kept slice differs from the rendered answer", mode)
		}
		if err := lw.flush(); err != nil {
			t.Fatal(err)
		}
		lw.release()
		if !bytes.Equal(rec.body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: body differs from encoding/json", mode)
		}
		if rec.flushes != 1 {
			t.Fatalf("%s: %d flushes, want 1", mode, rec.flushes)
		}
		if len(rec.writes) < 4 {
			t.Fatalf("%s: only %d writes; the answer should span several chunks", mode, len(rec.writes))
		}
		for i, n := range rec.writes[:len(rec.writes)-1] {
			if n != chunkSize {
				t.Fatalf("%s: write %d is %d bytes, want %d", mode, i, n, chunkSize)
			}
		}
	}
}
