package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// conn is one persistent client connection: its own transport limited
// to a single TCP connection, so every request of a load loop travels
// over the same socket. An httptrace hook counts the connections the
// transport had to open; close fails the run when a loop needed
// more than one, because a reconnect per request inflates latency.
type conn struct {
	base   string
	name   string
	tr     *http.Transport
	client *http.Client
	trace  *httptrace.ClientTrace
	dials  atomic.Int64
	reqs   atomic.Int64
	br     *bufio.Reader
}

func newConn(base, name string) *conn {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	c := &conn{base: base, name: name, tr: tr, client: &http.Client{Transport: tr}, br: bufio.NewReaderSize(nil, 64<<10)}
	c.trace = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			c.dials.Add(1)
		}
	}}
	return c
}

// close drops the idle connection and checks that the loop reused its
// one connection for every request.
func (c *conn) close(t *tally) {
	c.tr.CloseIdleConnections()
	if c.reqs.Load() > 0 {
		t.attempt(1)
		if d := c.dials.Load(); d != 1 {
			t.fail("connection hygiene: %s opened %d connections for %d requests (want 1)", c.name, d, c.reqs.Load())
		}
	}
}

// do sends one request and returns the response with its body still
// open; callers read it to EOF through drain or a parser.
func (c *conn) do(ctx context.Context, method, path, ctype string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, c.trace), method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	c.reqs.Add(1)
	return c.client.Do(req)
}

// drain reads a body to EOF and closes it, so the connection goes back
// to the pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// statusError drains a non-200 response into an error.
func statusError(resp *http.Response, what string) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	drain(resp)
	return fmt.Errorf("%s: HTTP %d: %s", what, resp.StatusCode, strings.TrimSpace(string(b)))
}

// Wire shapes of topod's API (internal/server/wire.go), declared here
// so the end-to-end run depends only on the wire.
type queryReq struct {
	Index      string    `json:"index,omitempty"`
	Relations  []string  `json:"relations"`
	Ref        []float64 `json:"ref"`
	Relations2 []string  `json:"relations2,omitempty"`
	Ref2       []float64 `json:"ref2,omitempty"`
}

type wireStats struct {
	NodeAccesses uint64 `json:"node_accesses"`
}

type joinReq struct {
	Left      string   `json:"left"`
	Right     string   `json:"right"`
	Relations []string `json:"relations"`
}

type joinStats struct {
	Pairs        int    `json:"pairs"`
	NodeAccesses uint64 `json:"node_accesses"`
}

type updateReq struct {
	Index string    `json:"index,omitempty"`
	OID   uint64    `json:"oid"`
	Rect  []float64 `json:"rect"`
}

type knnNeighbour struct {
	Dist float64 `json:"dist"`
}

type knnResp struct {
	Neighbours   []knnNeighbour `json:"neighbours"`
	NodeAccesses uint64         `json:"node_accesses"`
}

// queryAnswer is what one /v1/query stream returned.
type queryAnswer struct {
	oids  []uint64 // only when asked for
	stats wireStats
}

// query posts a /v1/query body and parses the NDJSON stream. Match
// lines are scanned for their OID without a JSON decoder, to keep the
// generator's own CPU use small; the stats line is decoded.
func (c *conn) query(ctx context.Context, body []byte, keepOIDs bool) (queryAnswer, error) {
	var ans queryAnswer
	resp, err := c.do(ctx, http.MethodPost, "/v1/query", "application/json", body)
	if err != nil {
		return ans, err
	}
	if resp.StatusCode != http.StatusOK {
		return ans, statusError(resp, "query")
	}
	defer drain(resp)
	c.br.Reset(resp.Body)
	sawStats := false
	for {
		line, err := c.br.ReadSlice('\n')
		if len(line) > 0 {
			if rest, ok := bytes.CutPrefix(line, []byte(`{"oid":`)); ok {
				oid, ok := leadingUint(rest)
				if !ok {
					return ans, fmt.Errorf("query: bad match line %q", line)
				}
				if keepOIDs {
					ans.oids = append(ans.oids, oid)
				}
			} else {
				var tail struct {
					Stats *wireStats `json:"stats"`
					Error string     `json:"error"`
				}
				if err := json.Unmarshal(line, &tail); err != nil {
					return ans, fmt.Errorf("query: bad line %q: %v", line, err)
				}
				if tail.Error != "" || tail.Stats == nil {
					return ans, fmt.Errorf("query: server error line %q", line)
				}
				ans.stats, sawStats = *tail.Stats, true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return ans, fmt.Errorf("query: reading stream: %w", err)
		}
	}
	if !sawStats {
		return ans, errors.New("query: stream ended without a stats line")
	}
	return ans, nil
}

// joinAnswer is what one /v1/join stream returned.
type joinAnswer struct {
	pairs    int
	partners map[uint64][]uint64 // left OID → right OIDs, for the sampled lefts
	stats    joinStats
}

// join posts a /v1/join body. Right partners are kept for the left
// OIDs in sample.
func (c *conn) join(ctx context.Context, body []byte, sample map[uint64]bool) (joinAnswer, error) {
	ans := joinAnswer{partners: map[uint64][]uint64{}}
	resp, err := c.do(ctx, http.MethodPost, "/v1/join", "application/json", body)
	if err != nil {
		return ans, err
	}
	if resp.StatusCode != http.StatusOK {
		return ans, statusError(resp, "join")
	}
	defer drain(resp)
	c.br.Reset(resp.Body)
	sawStats := false
	for {
		line, err := c.br.ReadSlice('\n')
		if len(line) > 0 {
			if rest, ok := bytes.CutPrefix(line, []byte(`{"left_oid":`)); ok {
				l, okL := leadingUint(rest)
				_, after, found := bytes.Cut(rest, []byte(`"right_oid":`))
				r, okR := leadingUint(after)
				if !okL || !found || !okR {
					return ans, fmt.Errorf("join: bad pair line %q", line)
				}
				ans.pairs++
				if sample[l] {
					ans.partners[l] = append(ans.partners[l], r)
				}
			} else {
				var tail struct {
					Stats *joinStats `json:"stats"`
					Error string     `json:"error"`
				}
				if err := json.Unmarshal(line, &tail); err != nil {
					return ans, fmt.Errorf("join: bad line %q: %v", line, err)
				}
				if tail.Error != "" || tail.Stats == nil {
					return ans, fmt.Errorf("join: server error line %q", line)
				}
				ans.stats, sawStats = *tail.Stats, true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return ans, fmt.Errorf("join: reading stream: %w", err)
		}
	}
	if !sawStats {
		return ans, errors.New("join: stream ended without a stats line")
	}
	if ans.stats.Pairs != ans.pairs {
		return ans, fmt.Errorf("join: stats line says %d pairs, stream had %d", ans.stats.Pairs, ans.pairs)
	}
	return ans, nil
}

// leadingUint parses the decimal digits at the start of b.
func leadingUint(b []byte) (uint64, bool) {
	var v uint64
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + uint64(b[n]-'0')
		n++
	}
	return v, n > 0
}

// knn asks for the k nearest neighbours of (x, y).
func (c *conn) knn(ctx context.Context, index string, k int, x, y float64) (knnResp, error) {
	var out knnResp
	path := fmt.Sprintf("/v1/knn?index=%s&k=%d&x=%s&y=%s", index, k,
		strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(y, 'g', -1, 64))
	resp, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, statusError(resp, "knn")
	}
	defer drain(resp)
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("knn: %w", err)
	}
	return out, nil
}

// post sends a small JSON body to a mutation endpoint and expects 200.
func (c *conn) post(ctx context.Context, path, ctype string, body []byte) error {
	resp, err := c.do(ctx, http.MethodPost, path, ctype, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusError(resp, strings.TrimPrefix(path, "/v1/"))
	}
	drain(resp)
	return nil
}

// metrics scrapes /metrics into name{labels} → value.
func (c *conn) metrics(ctx context.Context) (promValues, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp, "metrics")
	}
	defer drain(resp)
	return parseProm(resp.Body)
}

// promValues maps a sample's full name (with labels) to its value.
type promValues map[string]float64

func parseProm(r io.Reader) (promValues, error) {
	out := promValues{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before for one sample name (absent counts as 0).
func delta(before, after promValues, name string) float64 { return after[name] - before[name] }

// since is the time elapsed from t in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
