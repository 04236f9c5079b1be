package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"mbrtopo/internal/geom"
)

// The match lines of /v1/query and the pair lines of /v1/join are the
// bulk of what topod sends, so they skip reflection: each line is
// appended to one byte slice with the strconv appenders, following the
// number rules of encoding/json exactly (the golden tests pin the
// bytes). The slice reaches the client in chunkSize pieces and is
// flushed once, at the end of the stream. Stats and error lines still
// go through encoding/json, into the same slice.

// chunkSize is how many rendered bytes collect before they are written
// to the client: large enough that a broad answer costs one write per
// few hundred matches, small enough that the first bytes of a long
// stream leave early.
const chunkSize = 32 << 10

// maxLineBytes bounds one rendered join line (two uint64 OIDs and
// eight float64s with their keys), so a pooled slice of chunkSize +
// maxLineBytes never regrows on the non-cached path.
const maxLineBytes = 320

// linePool recycles the slices lines are rendered into.
var linePool = sync.Pool{New: func() any {
	b := make([]byte, 0, chunkSize+maxLineBytes)
	return &b
}}

// lineWriter renders NDJSON lines into buf and writes them to w in
// chunkSize pieces. With keep set, written bytes stay in buf, which
// then holds the whole answer for the result cache (the cache tee);
// without it, each written chunk is dropped, so buf never outgrows
// one chunk plus one line. Clearing keep mid-stream drops the kept
// bytes at the next spill.
type lineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     []byte
	sent    int // bytes of buf already written to w
	keep    bool
	pooled  *[]byte
}

// newLineWriter sets the NDJSON headers and returns a writer for the
// stream, rendering into a slice from linePool.
func newLineWriter(w http.ResponseWriter, keep bool) *lineWriter {
	pooled := linePool.Get().(*[]byte)
	return &lineWriter{w: w, flusher: ndjsonHeaders(w), buf: (*pooled)[:0], keep: keep, pooled: pooled}
}

// release returns the slice to linePool unless a kept answer grew it;
// neither the writer nor its buf may be used after.
func (lw *lineWriter) release() {
	if cap(lw.buf) <= chunkSize+maxLineBytes {
		*lw.pooled = lw.buf[:0]
		linePool.Put(lw.pooled)
	}
	lw.pooled, lw.buf = nil, nil
}

// Write appends p, so encoding/json can render the stats and error
// lines into the same slice.
func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.buf = append(lw.buf, p...)
	return len(p), lw.spill()
}

// spill writes every complete chunk pending in buf.
func (lw *lineWriter) spill() error {
	for len(lw.buf)-lw.sent >= chunkSize {
		if _, err := lw.w.Write(lw.buf[lw.sent : lw.sent+chunkSize]); err != nil {
			return err
		}
		lw.sent += chunkSize
	}
	if !lw.keep && lw.sent > 0 {
		lw.buf = lw.buf[:copy(lw.buf, lw.buf[lw.sent:])]
		lw.sent = 0
	}
	return nil
}

// flush writes whatever is pending and flushes the response.
func (lw *lineWriter) flush() error {
	if len(lw.buf) > lw.sent {
		if _, err := lw.w.Write(lw.buf[lw.sent:]); err != nil {
			return err
		}
		lw.sent = len(lw.buf)
		if !lw.keep {
			lw.buf, lw.sent = lw.buf[:0], 0
		}
	}
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
	return nil
}

// appendMatch appends the QueryLine of one match; spill writes it out.
// A non-finite coordinate appends nothing and returns the error
// encoding/json reports for it.
func (lw *lineWriter) appendMatch(oid uint64, r geom.Rect) error {
	b, err := appendQueryLine(lw.buf, oid, r)
	if err == nil {
		lw.buf = b
	}
	return err
}

// appendPair appends the JoinLine of one result pair, with the same
// refusal of non-finite coordinates as appendMatch.
func (lw *lineWriter) appendPair(lo, ro uint64, lr, rr geom.Rect) error {
	b, err := appendJoinLine(lw.buf, lo, ro, lr, rr)
	if err == nil {
		lw.buf = b
	}
	return err
}

// appendQueryLine renders QueryLine{OID: &oid, Rect: &rect} as
// encoding/json does, newline included.
func appendQueryLine(b []byte, oid uint64, r geom.Rect) ([]byte, error) {
	n := len(b)
	b = append(b, `{"oid":`...)
	b = strconv.AppendUint(b, oid, 10)
	b = append(b, `,"rect":`...)
	b, err := appendRect(b, r)
	if err != nil {
		return b[:n], err
	}
	return append(b, "}\n"...), nil
}

// appendJoinLine renders the pair form of JoinLine as encoding/json
// does, newline included.
func appendJoinLine(b []byte, lo, ro uint64, lr, rr geom.Rect) ([]byte, error) {
	n := len(b)
	b = append(b, `{"left_oid":`...)
	b = strconv.AppendUint(b, lo, 10)
	b = append(b, `,"right_oid":`...)
	b = strconv.AppendUint(b, ro, 10)
	b = append(b, `,"left_rect":`...)
	b, err := appendRect(b, lr)
	if err != nil {
		return b[:n], err
	}
	b = append(b, `,"right_rect":`...)
	if b, err = appendRect(b, rr); err != nil {
		return b[:n], err
	}
	return append(b, "}\n"...), nil
}

// appendRect renders a rectangle in its wire form [minx,miny,maxx,maxy].
func appendRect(b []byte, r geom.Rect) ([]byte, error) {
	var err error
	for i, v := range RectToWire(r) {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		if b, err = appendFloat(b, v); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat renders a float64 the way encoding/json does: the
// shortest representation that round-trips, in 'f' format except for
// magnitudes below 1e-6 or at or above 1e21, which use 'e' with a
// two-digit negative exponent shortened to one digit (e-07 → e-7).
// Like encoding/json it refuses NaN and the infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
