package wps

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
	"evop/internal/sched"
)

const asyncExec = "?service=WPS&request=Execute&identifier=add&storeExecuteResponse=true&datainputs="

// TestAsyncRunsOnPool: async executions run as bulk-class pool tasks and
// complete the normal lifecycle.
func TestAsyncRunsOnPool(t *testing.T) {
	svc := newService(t, "EVOp WPS", nil)
	if err := svc.Register(&addProcess{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+asyncExec+url.QueryEscape("a=2;b=5"))
	if code != http.StatusOK || !strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("accept: %d\n%s", code, body)
	}
	svc.Wait()
	idx := strings.Index(body, `executionId="`)
	rest := body[idx+len(`executionId="`):]
	execID := rest[:strings.Index(rest, `"`)]
	_, body = get(t, srv.URL+"?service=WPS&request=GetStatus&executionid="+execID)
	if !strings.Contains(body, "ProcessSucceeded") || !strings.Contains(body, "7") {
		t.Fatalf("pool-backed execution status:\n%s", body)
	}
}

// saturatedPool returns a one-worker pool whose async bound is filled
// with blocked bulk tasks, found by submitting until TrySubmit returns
// ErrSaturated. release unblocks them and waits until they have run; it
// is also registered in cleanup after pool.Close, so cleanup releases the
// blockers first and a failed assertion cannot hang Close.
func saturatedPool(t *testing.T) (pool *sched.Pool, release func()) {
	t.Helper()
	pool, err := sched.New(sched.Config{Workers: 1})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(pool.Close)
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	t.Cleanup(unblock)

	var blockers sync.WaitGroup
	blocker := func() { defer blockers.Done(); <-block }
	for n := 0; ; n++ {
		if n > 10000 {
			t.Fatalf("pool accepted %d blocked tasks without saturating", n)
		}
		blockers.Add(1)
		if err := pool.TrySubmit(sched.ClassBulk, blocker); err != nil {
			blockers.Done()
			if !errors.Is(err, sched.ErrSaturated) {
				t.Fatalf("blocker %d: %v", n, err)
			}
			break
		}
	}
	return pool, func() { unblock(); blockers.Wait() }
}

// TestAsyncBoundRejects pins the concurrency bound, which the compute
// pool owns: past it, async Execute requests get a ServerBusy exception
// instead of an unbounded goroutine, and the rejection is counted. Once
// the pool frees capacity, requests are accepted again.
func TestAsyncBoundRejects(t *testing.T) {
	pool, release := saturatedPool(t)
	reg := metrics.NewRegistry(clock.NewSimulated(time.Unix(0, 0)))
	svc := NewService("EVOp WPS", pool, reg)
	if err := svc.Register(&addProcess{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+asyncExec+url.QueryEscape("a=3;b=4"))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "ServerBusy") {
		t.Fatalf("over-bound request: %d, want 503 ServerBusy\n%s", code, body)
	}
	if svc.ActiveExecutions() != 0 {
		t.Fatalf("active = %d, want 0 (rejection must not register)", svc.ActiveExecutions())
	}

	// Capacity freed: accepted again, and only the rejection was counted.
	release()
	code, body = get(t, srv.URL+asyncExec+url.QueryEscape("a=5;b=6"))
	if code != http.StatusOK || !strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("accept after capacity freed: %d\n%s", code, body)
	}
	svc.Wait()
	want := map[string]float64{"evop_wps_rejected_total": 1, "evop_wps_queue_depth": 0}
	for _, m := range reg.Snapshot().Metrics {
		if v, ok := want[m.SeriesID()]; ok {
			if m.Value != v {
				t.Fatalf("%s = %v after drain, want %v", m.SeriesID(), m.Value, v)
			}
			delete(want, m.SeriesID())
		}
	}
	if len(want) != 0 {
		t.Fatalf("series missing from the registry: %v", want)
	}
}

// TestAsyncPoolSaturationUnregisters: when the pool refuses the task, the
// client sees ServerBusy and the half-registered execution is rolled back
// — no orphan in the status table, no stuck WaitGroup.
func TestAsyncPoolSaturationUnregisters(t *testing.T) {
	pool, _ := saturatedPool(t)
	svc := NewService("EVOp WPS", pool, nil)
	if err := svc.Register(&addProcess{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+asyncExec+url.QueryEscape("a=1;b=1"))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "ServerBusy") {
		t.Fatalf("saturated pool: %d, want 503 ServerBusy\n%s", code, body)
	}
	if svc.ActiveExecutions() != 0 {
		t.Fatalf("active = %d, want 0 (rollback)", svc.ActiveExecutions())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain after rejection: %v (the rolled-back execution must release the wait group)", err)
	}
}
