package portal

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkSeriesDegraded measures the series read path's overload
// fallback: the coarse-rollup representation must stay cheap — it is
// what the portal serves precisely when it can least afford work.
func BenchmarkSeriesDegraded(b *testing.B) {
	f := newFixture(b)
	f.clk.Advance(21 * time.Hour) // a full day of history behind the 3h warm-up

	req := httptest.NewRequest(http.MethodGet, "/sensors/morland-level-1/series", nil)
	req = req.WithContext(context.WithValue(req.Context(), degradedKey{}, true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		f.p.sensorSeries(rec, req, "morland-level-1")
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkMetricsScrape measures one /metrics scrape of the warmed
// fixture's registry in each representation — the cost an operator's
// poller adds to the serving process.
func BenchmarkMetricsScrape(b *testing.B) {
	f := newFixture(b)
	for _, tc := range []struct{ name, target string }{
		{"JSON", "/metrics"},
		{"Prometheus", "/metrics?format=prometheus"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, tc.target, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				f.p.metrics(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status = %d", rec.Code)
				}
			}
		})
	}
}
