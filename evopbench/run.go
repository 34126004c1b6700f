package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// setupRepeats fresh set-ups are timed per end-to-end run; setup_s
	// is their median and the last one serves the traffic.
	setupRepeats = 3
	// warmupWindow of untimed traffic fills caches and opens connections
	// before any window is measured.
	warmupWindow = time.Second
	// probeCount requests of each kind a traced window never sent are
	// issued after it, so every per-layer metric is a measured number.
	probeCount = 16
	// heldOutSeed is kept out of tuning, for re-checking a claimed gain.
	heldOutSeed = 7
	// liveDrain bounds the wait for /ws/live frames after a window.
	liveDrain = 5 * time.Second
)

// traceDir holds the span files of traced runs, under the build
// directory the checkout ignores.
var traceDir = filepath.Join(".bench_build", "evopbench")

func run(opts options) (*result, map[string]any, error) {
	nproc := runtime.NumCPU()
	meta := hostMeta(opts, nproc)
	var res *result
	var err error
	if opts.trace {
		res, err = runTraced(opts, nproc, meta)
	} else {
		res, err = runEndToEnd(opts, nproc, meta)
	}
	return res, meta, err
}

// newLoop opens the workload's connections: nproc closed-loop HTTP
// clients, or for live-ingest one ingest client plus nproc-1 /ws/live
// subscribers. latencies keeps every request's latency, which only
// per-layer runs report.
func newLoop(st *stack, e *env, wl workload, seed int64, nproc int, latencies bool) (*loop, error) {
	clients, subs := nproc, 0
	if wl.live {
		clients, subs = 1, max(1, nproc-1)
	}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	lp := &loop{st: st, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, latencies: latencies}
	for i := 0; i < clients; i++ {
		lp.clients = append(lp.clients, &client{rid: "evopbench-" + strconv.Itoa(i) + "-", gen: newGen(e, wl, seed, i)})
	}
	if subs > 0 {
		live, err := startLive(st.base, e.catchments, subs, latencies)
		if err != nil {
			return nil, err
		}
		lp.live = live
	}
	return lp, nil
}

func (lp *loop) close() {
	if lp.live != nil {
		lp.live.close()
	}
	lp.hc.CloseIdleConnections()
}

// measured is one window's traffic plus what the process and the
// observatory's registry recorded across it.
type measured struct {
	t        *tally
	slices   []slice
	reg      regDelta
	proc     [2]procSnap
	peakHeap float64
	liveLat  []time.Duration
	frames   int
}

// perSlice returns the median over the window's slices of f; a median
// shrugs off a stall that covers a few slices.
func (m *measured) perSlice(f func(s slice) float64) float64 {
	v := make([]float64, len(m.slices))
	for i, s := range m.slices {
		v[i] = f(s)
	}
	return median(v)
}

// rps is the median over the slices of the successful answers per second.
func (m *measured) rps() float64 {
	return m.perSlice(func(s slice) float64 { return s.ok / s.elapsed.Seconds() })
}

// mbps is the median over the slices of the response bytes delivered per
// second, in MB/s.
func (m *measured) mbps() float64 {
	return m.perSlice(func(s slice) float64 { return s.bytes / s.elapsed.Seconds() / 1e6 })
}

// refRPS is rps with each slice divided by the host's speed around it,
// relative to the reference host.
func (m *measured) refRPS() float64 {
	return m.perSlice(func(s slice) float64 { return s.ok / s.elapsed.Seconds() / s.hostSpeed })
}

// refMBps is mbps scaled to the reference host speed like refRPS.
func (m *measured) refMBps() float64 {
	return m.perSlice(func(s slice) float64 { return s.bytes / s.elapsed.Seconds() / 1e6 / s.hostSpeed })
}

// hostSpeed is the median host speed around the slices, relative to
// the reference host.
func (m *measured) hostSpeed() float64 {
	return m.perSlice(func(s slice) float64 { return s.hostSpeed })
}

// p50 is the median over the slices of each slice's median latency,
// failures included.
func (m *measured) p50() float64 {
	return m.perSlice(func(s slice) float64 { return s.p50 })
}

// measure runs traffic between two registry snapshots and checks the
// live-delivery accounting of the window against them. With heap set it
// also samples the peak heap while the traffic runs.
func (lp *loop) measure(traffic func() (*tally, []slice), heap bool) *measured {
	lp.phase++
	reg := lp.st.obs.MetricsRegistry()
	m := &measured{}
	m.reg.before = reg.Snapshot()
	m.proc[0] = readProc()
	var hs *heapSampler
	if heap {
		hs = startHeapSampler()
	}
	m.t, m.slices = traffic()
	if hs != nil {
		m.peakHeap = hs.finish()
	}
	m.proc[1] = readProc()
	m.reg.after = reg.Snapshot()
	if err := lp.checkLive(m); err != nil {
		m.t.failed++
		m.t.errs = append(m.t.errs, err.Error())
	}
	return m
}

// checkLive verifies the window's live fan-out: every insert reached
// every subscriber's queue, and the subscribers received every queued
// frame that was not coalesced away.
func (lp *loop) checkLive(m *measured) error {
	if lp.live == nil {
		return nil
	}
	hub := map[string]string{"hub": "sensors"}
	delivered := m.reg.counter("evop_push_delivered_total", hub)
	coalesced := m.reg.counter("evop_push_coalesced_total", hub)
	want := int(delivered - coalesced)
	m.frames = lp.live.await(lp.phase, want, liveDrain)
	var stray int
	m.liveLat, stray = lp.live.take(lp.phase)
	if stray > 0 {
		return fmt.Errorf("live: %d frames match no inserted observation", stray)
	}
	inserts := m.t.kinds[kInsert]
	if subs := len(lp.live.conns); int(delivered) != inserts*subs {
		return fmt.Errorf("live: %d inserts × %d subscribers, but the hub delivered %v", inserts, subs, delivered)
	}
	if m.frames != want {
		return fmt.Errorf("live: subscribers received %d frames, want delivered %v - coalesced %v", m.frames, delivered, coalesced)
	}
	return nil
}

// probe sends probeCount requests of each kind, one at a time, with
// request IDs that mark their spans as the probe's.
func (lp *loop) probe(g *gen, kinds []kind) (*tally, []slice) {
	c := &client{rid: probePrefix, gen: g}
	t := &tally{latencies: true}
	for _, k := range kinds {
		for i := 0; i < probeCount; i++ {
			lp.exchange(c, g.make(k), true, t)
		}
	}
	return t, nil
}

// timedWindow returns the traffic of a window of whole seconds.
func timedWindow(lp *loop, seconds int, traced, calibrate bool) func() (*tally, []slice) {
	return func() (*tally, []slice) { return lp.slices(seconds, traced, calibrate) }
}

// report prints a window's failures to standard error.
func report(label string, t *tally) {
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "evopbench: %s: %s\n", label, e)
	}
}

// prepare builds the environment and the workload's connections over a
// stack and runs the untimed warm-up.
func prepare(st *stack, opts options, nproc int, latencies bool) (*env, *loop, *tally, error) {
	e, err := newEnv(st, opts.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	lp, err := newLoop(st, e, workloads[opts.workload], opts.seed, nproc, latencies)
	if err != nil {
		return nil, nil, nil, err
	}
	warm, _ := lp.window(warmupWindow, false)
	report("warm-up", warm)
	return e, lp, warm, nil
}

// runEndToEnd measures the end-to-end metrics with tracing off. The
// window's slices alternate with host calibration bursts, and the ref
// metrics scale each slice to the reference host speed. The unscaled
// rates and the host's speed go into the metadata line.
func runEndToEnd(opts options, nproc int, meta map[string]any) (*result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		s, err := buildStack(opts, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i+1 < setupRepeats {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	_, lp, warm, err := prepare(st, opts, nproc, false)
	if err != nil {
		return nil, err
	}
	defer lp.close()
	if lp.cal, err = newCalibrator(nproc); err != nil {
		return nil, err
	}
	defer lp.cal.close()
	m := lp.measure(timedWindow(lp, opts.seconds, false, true), true)
	report("window", m.t)
	if lp.cal.err != nil {
		return nil, fmt.Errorf("calibrating the host: %w", lp.cal.err)
	}
	meta["throughput_rps"] = m.rps()
	meta["response_mb_per_s"] = m.mbps()
	meta["host_speed"] = m.hostSpeed()

	return &result{
		Correct:   warm.failed == 0 && m.t.failed == 0,
		Attempted: warm.attempted + m.t.attempted,
		Failed:    warm.failed + m.t.failed,
		Metrics: map[string]metric{
			"setup_s":               {median(setups), "s"},
			"throughput_ref_rps":    {m.refRPS(), "req/s"},
			"response_ref_mb_per_s": {m.refMBps(), "MB/s"},
			"peak_heap_mb":          {m.peakHeap / 1e6, "MB"},
		},
	}, nil
}

// runTraced measures the per-layer metrics: counters and class
// latencies over an untraced window, then layer timings over a traced
// window of the same length. The result must carry every per-layer
// metric on every workload, so a probe then sends probeCount requests of
// each kind the traced window lacked; the metrics read from it are
// listed in the metadata as probed_metrics. The queued layer replays run
// after all traffic. It sets up once; set-up time is an end-to-end
// metric.
func runTraced(opts options, nproc int, meta map[string]any) (*result, error) {
	tr := newTracer()
	st, err := buildStack(opts, tr.wrap)
	if err != nil {
		return nil, err
	}
	defer st.close()
	e, lp, warm, err := prepare(st, opts, nproc, true)
	if err != nil {
		return nil, err
	}
	defer lp.close()

	// The two windows share --seconds, so a traced run takes about as
	// long as an end-to-end one.
	half := max(1, opts.seconds/2)
	u := lp.measure(timedWindow(lp, half, false, false), false)
	report("untraced window", u.t)

	rep, err := newReplayer(tr, st.obs, st.clk)
	if err != nil {
		return nil, err
	}
	defer rep.close()
	lp.rep = rep
	tr.on.Store(true)
	tw := lp.measure(timedWindow(lp, half, true, false), false)
	report("traced window", tw.t)

	var missing []kind
	for k := kind(0); k < numKinds; k++ {
		if tw.t.kinds[k] == 0 {
			missing = append(missing, k)
		}
	}
	if lp.live == nil && tw.t.kinds[kInsert] == 0 {
		if lp.live, err = startLive(st.base, e.catchments, 1, true); err != nil {
			return nil, err
		}
	}
	if err := e.resnapshot(st.obs); err != nil {
		return nil, err
	}
	pg := newGen(e, workload{backdatedShare: 0.5}, opts.seed, len(lp.clients)+1)
	pr := lp.measure(func() (*tally, []slice) { return lp.probe(pg, missing) }, false)
	report("probe", pr.t)
	tr.on.Store(false)
	rep.flush()

	var kindsProbed []string
	for _, k := range missing {
		kindsProbed = append(kindsProbed, kindNames[k])
	}
	metrics, probed := layerMetrics(st, e, u, tw, pr, tr, rep, nproc)
	meta["probed_kinds"] = strings.Join(kindsProbed, ",")
	meta["probed_metrics"] = probed
	if err := tr.write(filepath.Join(traceDir, "trace-"+opts.workload+".jsonl.gz"), meta); err != nil {
		fmt.Fprintln(os.Stderr, "evopbench: writing spans:", err)
	}

	failed := warm.failed + u.t.failed + tw.t.failed + pr.t.failed
	return &result{
		Correct:   failed == 0,
		Attempted: warm.attempted + u.t.attempted + tw.t.attempted + pr.t.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}
