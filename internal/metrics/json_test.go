package metrics

import (
	"strings"
	"testing"
	"time"

	"evop/internal/clock"
)

// TestSnapshotJSON pins the JSON document's shape: series grouped by
// family (the name segment after evop_), keyed by series id, counters and
// gauges as numbers and histograms as their stats — including a family
// whose names the snapshot order interleaves with another family's.
func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry(clock.NewSimulated(time.Unix(0, 0)))
	reg.Counter("evop_http_requests_total", "", L("route", "/a")).Add(3)
	reg.Gauge("evop_http", "").Set(-2)
	reg.Counter("evop_http2_frames_total", "").Inc()
	reg.GaugeFunc("evop_cost", "", func() float64 { return 1.5e-9 })
	reg.Counter("plain", "").Add(1e6)
	h := reg.Histogram("evop_http_request_seconds", "", DurationScale)
	h.RecordDuration(1500 * time.Millisecond)

	var got strings.Builder
	if err := reg.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{"cost":{"evop_cost":1.5e-09},` +
		`"http":{"evop_http":-2,"evop_http_request_seconds":{"count":1,"sum":1.5,"max":1.5,"p50":1.5,"p95":1.5,"p99":1.5},` +
		`"evop_http_requests_total{route=\"/a\"}":3},` +
		`"http2":{"evop_http2_frames_total":1},` +
		`"plain":{"plain":1000000}}` + "\n"
	if got.String() != want {
		t.Fatalf("JSON mismatch:\n got %s\nwant %s", got.String(), want)
	}
	var empty strings.Builder
	if err := (*Registry)(nil).WriteJSON(&empty); err != nil || empty.String() != "{}\n" {
		t.Fatalf("nil registry JSON = %q, %v; want {}", empty.String(), err)
	}
}
