package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHistogramExpositionGolden pins the three latency histogram
// families of /metrics byte for byte: topod -bench and perfbench parse
// them, so the renderer may change but its output may not. The golden
// file was captured from the hand-printed renderer this one replaced;
// a deliberate format change edits it by hand.
func TestHistogramExpositionGolden(t *testing.T) {
	m := NewMetrics()
	// One observation per bucket edge region, plus overflow into +Inf
	// and sums that exercise %g formatting.
	for i, d := range []time.Duration{
		50 * time.Microsecond, 100 * time.Microsecond, 333 * time.Microsecond,
		1234567 * time.Nanosecond, 7 * time.Millisecond, 42 * time.Millisecond,
		300 * time.Millisecond, 2 * time.Second, 9 * time.Second,
	} {
		m.endpoint("query").latency.observe(d)
		if i%2 == 0 {
			m.endpoint("bulk").latency.observe(d / 3)
		}
		if i%3 == 0 {
			m.joinLatency.observe(d * 2)
		}
		m.watchLatency.observe(d / 7)
	}
	m.endpoint("insert") // an endpoint with an empty histogram

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	families := []string{
		"topod_request_duration_seconds",
		"topod_join_duration_seconds",
		"topod_watch_notify_duration_seconds",
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		for _, fam := range families {
			if strings.HasPrefix(line, fam+"_") ||
				strings.HasPrefix(line, "# HELP "+fam+" ") ||
				strings.HasPrefix(line, "# TYPE "+fam+" ") {
				got.WriteString(line)
				break
			}
		}
	}

	path := filepath.Join("testdata", "histograms.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("histogram exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got.String(), want)
	}
}
