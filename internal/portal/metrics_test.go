package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"evop/internal/metrics"
)

// metricsDoc is the /metrics JSON document: family → series id → value
// (a number, or a histogram's stats).
type metricsDoc map[string]map[string]json.RawMessage

// decodeMetrics parses a /metrics JSON body token by token, failing on
// a family or series key that appears twice (a map decode would
// silently keep the last).
func decodeMetrics(t *testing.T, body []byte) metricsDoc {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	delim := func(want json.Delim) {
		t.Helper()
		if tok, err := dec.Token(); err != nil || tok != want {
			t.Fatalf("metrics JSON: token %v (%v), want %v in %.200s", tok, err, want, body)
		}
	}
	key := func() string {
		t.Helper()
		tok, err := dec.Token()
		k, ok := tok.(string)
		if err != nil || !ok {
			t.Fatalf("metrics JSON: token %v (%v), want an object key", tok, err)
		}
		return k
	}
	doc := metricsDoc{}
	delim('{')
	for dec.More() {
		family := key()
		if _, dup := doc[family]; dup {
			t.Fatalf("family %q appears twice", family)
		}
		series := map[string]json.RawMessage{}
		delim('{')
		for dec.More() {
			id := key()
			if _, dup := series[id]; dup {
				t.Fatalf("series %s appears twice in family %q", id, family)
			}
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				t.Fatalf("series %s: %v", id, err)
			}
			series[id] = v
		}
		delim('}')
		doc[family] = series
	}
	delim('}')
	return doc
}

// getMetrics fetches and decodes GET /metrics.
func (f *fixture) getMetrics(t *testing.T) metricsDoc {
	t.Helper()
	code, body := f.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d %s", code, body)
	}
	return decodeMetrics(t, body)
}

// value returns a counter or gauge series from the document, failing if
// the family or series is absent.
func (d metricsDoc) value(t *testing.T, family, id string) float64 {
	t.Helper()
	raw, ok := d[family][id]
	if !ok {
		t.Fatalf("metrics JSON has no %s under %q", id, family)
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("%s = %s: %v", id, raw, err)
	}
	return v
}

// histogram returns a histogram series from the document, failing if
// the family or series is absent.
func (d metricsDoc) histogram(t *testing.T, family, id string) metrics.HistogramStats {
	t.Helper()
	raw, ok := d[family][id]
	if !ok {
		t.Fatalf("metrics JSON has no %s under %q", id, family)
	}
	var h metrics.HistogramStats
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("%s = %s: %v", id, raw, err)
	}
	return h
}

// TestMetricsJSONSchema pins the /metrics JSON contract: it is a
// rendering of the registry snapshot. On a quiescent fixture every
// series appears exactly once, under its family and keyed by its series
// id, with the snapshot's value; nothing else appears. The heap and
// goroutine gauges move between any two reads, so only their presence
// is compared.
func TestMetricsJSONSchema(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(2 * time.Minute)
	// Exercise a few endpoints so the counters are non-trivial.
	f.get(t, "/healthz")
	f.get(t, "/sensors/morland-level-1/series?points=10")
	if got := f.getMetrics(t); got["http"] == nil || got["process"] == nil {
		t.Fatal("GET /metrics lacks the http or process family")
	}
	// A handler finishes recording after its client has the body; the
	// in-flight gauge drops last, so zero means every request is counted.
	for deadline := time.Now().Add(5 * time.Second); f.p.inflight.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("requests still in flight after 5s")
		}
	}

	// Render without the middleware, so the scrape itself moves nothing.
	rec := httptest.NewRecorder()
	f.p.metrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q, want application/json", ct)
	}
	doc := decodeMetrics(t, rec.Body.Bytes())
	snap := f.obs.MetricsRegistry().Snapshot()

	volatile := map[string]bool{"evop_process_heap_bytes": true, "evop_process_goroutines": true}
	for _, m := range snap.Metrics {
		id := m.SeriesID()
		if m.Histogram == nil {
			if v := doc.value(t, m.Family(), id); v != m.Value && !volatile[id] {
				t.Errorf("%s = %v in JSON, %v in the snapshot", id, v, m.Value)
			}
			continue
		}
		h, w := doc.histogram(t, m.Family(), id), *m.Histogram
		if h.Count != w.Count || h.Sum != w.Sum || h.Max != w.Max || h.P50 != w.P50 || h.P95 != w.P95 || h.P99 != w.P99 {
			t.Errorf("%s = %+v in JSON, %+v in the snapshot", id, h, w)
		}
		if h.P50 < 0 || h.P95 < h.P50 || h.P99 < h.P95 || h.Max < h.P99 {
			t.Errorf("%s quantiles not ordered: %+v", id, h)
		}
	}
	n := 0
	for _, series := range doc {
		n += len(series)
	}
	if n != len(snap.Metrics) {
		t.Fatalf("JSON holds %d series, snapshot %d", n, len(snap.Metrics))
	}
	if hs := doc.histogram(t, "http", `evop_http_request_seconds{route="/healthz"}`); hs.Count == 0 {
		t.Fatal("no /healthz requests recorded")
	}
	if up := doc.value(t, "process", "evop_process_uptime_seconds"); up < 120 {
		t.Fatalf("uptime = %v s, want >= the 2 simulated minutes advanced", up)
	}
}

// TestMetricsPrometheusExposition drives ?format=prometheus end to end:
// content type, line grammar, and series from every instrumented layer
// (HTTP, sensor read path, push hub, run cache, LB, broker, breakers)
// appearing in one exposition.
func TestMetricsPrometheusExposition(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(2 * time.Minute)
	f.get(t, "/healthz")
	f.get(t, "/sensors/morland-level-1/series?points=10")

	resp, err := http.Get(f.srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != metrics.PrometheusContentType {
		t.Fatalf("content type = %q, want %q", got, metrics.PrometheusContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE evop_http_request_seconds histogram",
		`evop_http_request_seconds_count{route="/healthz"}`,
		"evop_http_in_flight",
		"evop_sensor_series_queries_total",
		`evop_push_published_total{hub="sensors",shard="0"}`,
		"evop_runcache_hits_total",
		"evop_lb_ticks_total",
		"evop_broker_sessions_closed_total",
		`evop_breaker_opens_total{name="openstack-lancaster"}`,
		"evop_series_query_seconds_sum",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	checkPortalExpositionGrammar(t, body)
}

// TestMetricsAcceptNegotiation checks the representation choice: an
// explicit ?format= always wins, and otherwise an Accept header naming
// text/plain selects the Prometheus exposition.
func TestMetricsAcceptNegotiation(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		path, accept   string
		wantPrometheus bool
	}{
		{"/metrics", "", false},
		{"/metrics", "application/json", false},
		{"/metrics", "text/plain", true},
		{"/metrics", "text/plain;version=0.0.4", true},
		{"/metrics?format=prometheus", "application/json", true},
		{"/metrics?format=json", "text/plain", false},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodGet, f.srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		gotProm := ct == metrics.PrometheusContentType
		if gotProm != tc.wantPrometheus {
			t.Errorf("%s Accept=%q: content type %q, want prometheus=%v",
				tc.path, tc.accept, ct, tc.wantPrometheus)
		}
	}
}

// checkPortalExpositionGrammar asserts text-format 0.0.4 line structure
// over the portal's full exposition.
func checkPortalExpositionGrammar(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		value := line[sp+1:]
		if value == "+Inf" || value == "-Inf" || value == "NaN" {
			continue
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
}
