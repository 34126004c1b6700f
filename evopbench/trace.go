package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evop/internal/admission"
	"evop/internal/clock"
	"evop/internal/core"
	"evop/internal/hydro"
	"evop/internal/hydro/fuse"
	"evop/internal/hydro/topmodel"
	"evop/internal/scenario"
	"evop/internal/sensor"
	"evop/internal/timeseries"
	"evop/internal/ws"
)

// span is one timed interval of a traced request. IDs are local to the
// trace: 1 is the client's root span, 2 the server's Portal.ServeHTTP
// span, 3 and up the layer calls replayed after the traced window.
// Probe marks the spans of probe requests, whose trace IDs start with
// probePrefix.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Probe  bool   `json:"probe,omitempty"`
}

// probePrefix starts the request IDs of probe requests.
const probePrefix = "probe-"

// tracer keeps every span of a run in memory until the run ends.
type tracer struct {
	origin time.Time
	// on gates the server-side wrapper, so the untraced window of a
	// traced run records nothing.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(trace string, id, parent int, name string, start, end time.Time) {
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Probe: strings.HasPrefix(trace, probePrefix)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a server span around the portal for every request that
// carries a request ID while tracing is on; the portal echoes the ID, so
// the span joins the client's trace.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rid := r.Header.Get("X-Request-ID")
		start := time.Now()
		h.ServeHTTP(w, r)
		if rid != "" {
			t.add(rid, 2, 1, "portal.ServeHTTP/"+routeGroup(r.Method, r.URL.Path), start, time.Now())
		}
	})
}

// byName returns the span durations of the traced window, or of the
// probe, grouped by span name.
func (t *tracer) byName(probe bool) map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		if s.Probe == probe {
			out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's self time, its duration minus the part
// of it covered by its children, grouped by span name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	traces := make(map[string][]int)
	for i, s := range t.spans {
		traces[s.Trace] = append(traces[s.Trace], i)
	}
	out := make(map[string][]time.Duration)
	for _, idx := range traces {
		for _, i := range idx {
			p := t.spans[i]
			var kids [][2]int64
			for _, j := range idx {
				c := t.spans[j]
				if c.Parent != p.ID || j == i {
					continue
				}
				lo, hi := max(c.Start, p.Start), min(c.End, p.End)
				if lo < hi {
					kids = append(kids, [2]int64{lo, hi})
				}
			}
			out[p.Name] = append(out[p.Name], time.Duration(p.End-p.Start-covered(kids)))
		}
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// transport returns, per traced-window trace with both, the client
// round trip minus the server's handler time: net/http and loopback on
// both sides.
func (t *tracer) transport() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[string]int64)
	servers := make(map[string]int64)
	for _, s := range t.spans {
		if s.Probe {
			continue
		}
		switch s.ID {
		case 1:
			roots[s.Trace] = s.End - s.Start
		case 2:
			servers[s.Trace] = s.End - s.Start
		}
	}
	var out []time.Duration
	for tr, root := range roots {
		if srv, ok := servers[tr]; ok {
			out = append(out, time.Duration(root-srv))
		}
	}
	return out
}

// write stores the run's spans as gzipped JSON lines: one summary line
// with the median self time per span name, then every span.
func (t *tracer) write(path string, meta map[string]any) error {
	self := make(map[string]float64)
	for name, d := range t.selfTimes() {
		self[name] = percentileMs(d, 0.5)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(map[string]any{"meta": meta, "selfTimeP50Ms": self}); err != nil {
		return fmt.Errorf("writing trace summary: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing span: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("flushing trace file: %w", err)
	}
	return f.Close()
}

// fuseDecisions mirrors the three-member ensemble the observatory runs
// for a widget FUSE request.
var fuseDecisions = []fuse.Decisions{
	{Upper: fuse.UpperSingle, Perc: fuse.PercFieldCap, Base: fuse.BaseLinear, Routing: fuse.RouteGammaUH},
	{Upper: fuse.UpperTensionFree, Perc: fuse.PercWaterContent, Base: fuse.BasePower, Routing: fuse.RouteGammaUH},
	{Upper: fuse.UpperTensionFree, Perc: fuse.PercFieldCap, Base: fuse.BaseParallel, Routing: fuse.RouteGammaUH},
}

// replayer queues each traced request as its answer arrives and, once
// the traffic has ended, replays the queue in order: it times calls into
// the public functions of the layers each request exercised, with the
// request's own inputs, recording each call as a span of the request's
// trace. Replaying after the traffic keeps the replay's load out of the
// handler and transport spans. Writes go to a shadow copy of the sensor
// network and a benchmark-owned WebSocket pair, never to the served
// observatory.
type replayer struct {
	tr     *tracer
	obs    *core.Observatory
	shadow *sensor.Network
	pair   *wsPair

	mu     sync.Mutex
	queued []queuedRequest

	// work is what the replays of the traced window's requests (0) and
	// of the probe's (1) computed.
	work [2]replayWork
}

// replayWork sums what replayed model runs computed.
type replayWork struct {
	flotBytes []float64     // size of each replayed FlotJSON encoding
	steps     float64       // TOPMODEL steps × TI classes replayed
	kernel    time.Duration // time those steps took
}

// queuedRequest is a traced request awaiting replay.
type queuedRequest struct {
	rid string
	req *request
}

func newReplayer(tr *tracer, obs *core.Observatory, clk clock.Clock) (*replayer, error) {
	shadow, err := shadowNetwork(obs, clk)
	if err != nil {
		return nil, err
	}
	pair, err := newWSPair()
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, obs: obs, shadow: shadow, pair: pair}, nil
}

func (r *replayer) close() { r.pair.close() }

// enqueue adds a traced request to the replay queue.
func (r *replayer) enqueue(rid string, req *request) {
	r.mu.Lock()
	r.queued = append(r.queued, queuedRequest{rid, req})
	r.mu.Unlock()
}

// flush replays every queued request in the order the answers arrived.
func (r *replayer) flush() {
	r.mu.Lock()
	q := r.queued
	r.queued = nil
	r.mu.Unlock()
	for _, e := range q {
		r.replay(e.rid, e.req)
	}
}

// shadowNetwork copies the served network's sensors and current
// histories into an unstarted network the ingest replay can write to.
func shadowNetwork(obs *core.Observatory, clk clock.Clock) (*sensor.Network, error) {
	n, err := sensor.NewNetwork(clk)
	if err != nil {
		return nil, fmt.Errorf("building shadow network: %w", err)
	}
	sensors := obs.Network.Sensors()
	for _, s := range sensors {
		if err := n.Add(s); err != nil {
			return nil, fmt.Errorf("shadowing %s: %w", s.ID, err)
		}
	}
	for _, s := range sensors {
		if s.Kind == sensor.Webcam {
			continue
		}
		h, err := obs.Network.History(s.ID, time.Time{}, clk.Now().AddDate(1, 0, 0))
		if err != nil {
			return nil, fmt.Errorf("copying %s history: %w", s.ID, err)
		}
		for _, o := range h {
			if err := n.Ingest(s.ID, o.Time, o.Value); err != nil {
				return nil, fmt.Errorf("copying %s history: %w", s.ID, err)
			}
		}
	}
	return n, nil
}

// admissionClass mirrors the portal's route policy: the class a request
// is admitted under, and false for routes exempt from admission.
func admissionClass(req *request) (admission.Class, bool) {
	switch routeGroup(req.method, req.path) {
	case "model":
		return admission.Model, true
	case "wps":
		return admission.Bulk, true
	case "sos_get", "sos_insert":
		return admission.Ingest, true
	case "metrics":
		return 0, false
	}
	return admission.Live, true
}

// replay times the layer calls behind req under trace rid.
func (r *replayer) replay(rid string, req *request) {
	ctx := context.Background()
	w := &r.work[0]
	if strings.HasPrefix(rid, probePrefix) {
		w = &r.work[1]
	}
	id := 2
	timed := func(name string, fn func()) time.Duration {
		id++
		s := time.Now()
		fn()
		e := time.Now()
		r.tr.add(rid, id, 1, name, s, e)
		return e.Sub(s)
	}
	if cl, ok := admissionClass(req); ok {
		timed("admission.Admit+Release", func() {
			if _, err := r.obs.Admission.Admit(ctx, cl, "127.0.0.1"); err == nil {
				r.obs.Admission.Release(cl)
			}
		})
	}
	nw := r.obs.Network
	switch req.kind {
	case kPreset, kFresh, kFuse, kRepeat, kWPS:
		// Later misses may have evicted the key since it was served, so
		// an untimed call puts it back and the timed one is a hit.
		_, _, _ = r.obs.RunModelCachedContext(ctx, *req.run)
		var res *core.RunResult
		timed("core.RunModelCachedContext", func() { res, _, _ = r.obs.RunModelCachedContext(ctx, *req.run) })
		if res != nil {
			var flot []byte
			timed("timeseries.Series.FlotJSON", func() { flot, _ = res.Discharge.FlotJSON() })
			w.flotBytes = append(w.flotBytes, float64(len(flot)))
		}
		switch req.kind {
		case kFresh, kWPS:
			r.replayTOPMODEL(req.run, w, timed)
		case kFuse:
			r.replayFUSE(ctx, req.run, timed)
		}
	case kLatest:
		timed("sensor.Network.Latest", func() { _, _ = nw.Latest(req.sensor) })
	case kSeries, kSOSGet, kReadBack:
		timed("sensor.Network.ReadStamp", func() { _, _ = nw.ReadStamp(req.sensor) })
		timed("sensor.Network.HistoryView", func() { _, _ = nw.HistoryView(req.sensor, req.from, req.to) })
	case kPoints:
		timed("sensor.Network.ReadStamp", func() { _, _ = nw.ReadStamp(req.sensor) })
		var view []timeseries.Observation
		timed("sensor.Network.HistoryView", func() { view, _ = nw.HistoryView(req.sensor, req.from, req.to) })
		timed("timeseries.Downsample", func() { _ = timeseries.Downsample(view, req.points) })
	case kAgg:
		timed("sensor.Network.ReadStamp", func() { _, _ = nw.ReadStamp(req.sensor) })
		timed("sensor.Network.AggregateSeries", func() {
			_, _ = nw.AggregateSeries(req.sensor, req.from, req.step, req.buckets)
		})
	case kReval:
		timed("sensor.Network.ReadStamp", func() { _, _ = nw.ReadStamp(req.sensor) })
	case kFusion:
		c := req.sensor
		timed("sensor.Network.Fuse", func() { _, _ = nw.Fuse(c+"-temp-1", c+"-turb-1", c+"-cam-1", req.at) })
		for _, id := range []string{c + "-temp-1", c + "-turb-1"} {
			var view []timeseries.Observation
			timed("sensor.Network.HistoryView", func() {
				view, _ = nw.HistoryView(id, req.at.Add(-24*time.Hour), req.at.Add(time.Nanosecond))
			})
			timed("timeseries.Downsample", func() { _ = timeseries.Downsample(view, req.points) })
		}
	case kMetrics:
		timed("metrics.Registry.Snapshot", func() { _ = r.obs.MetricsRegistry().Snapshot() })
	case kInsert:
		name := "sensor.Network.Ingest/append"
		if req.backdated {
			name = "sensor.Network.Ingest/backdated"
		}
		timed(name, func() { _ = r.shadow.Ingest(req.sensor, req.at, req.value) })
		payload, err := json.Marshal(sensor.Reading{SensorID: req.sensor, Time: req.at, Value: req.value})
		if err == nil {
			timed("ws.Conn.WriteMessage", func() { _ = r.pair.server.WriteMessage(ws.OpText, payload) })
		}
	}
}

// replayTOPMODEL rebuilds the run's kernel inputs the way the
// observatory does and times topmodel.Model.Run on them.
func (r *replayer) replayTOPMODEL(run *core.RunRequest, w *replayWork, timed func(string, func()) time.Duration) {
	c, ok := r.obs.Catchments.Get(run.CatchmentID)
	if !ok {
		return
	}
	f, sc, err := r.forcing(run)
	if err != nil {
		return
	}
	params := topmodel.DefaultParams()
	if run.TOPMODELParams != nil {
		params = *run.TOPMODELParams
	}
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		return
	}
	m, err := topmodel.New(sc.ApplyTOPMODEL(params), ti)
	if err != nil {
		return
	}
	d := timed("topmodel.Model.Run", func() { _, _ = m.Run(f) })
	w.steps += float64(f.Rain.Len() * len(ti.Values))
	w.kernel += d
}

// replayFUSE times the widget's three-member ensemble on the shared pool.
func (r *replayer) replayFUSE(ctx context.Context, run *core.RunRequest, timed func(string, func()) time.Duration) {
	f, sc, err := r.forcing(run)
	if err != nil {
		return
	}
	params := sc.ApplyFUSE(fuse.DefaultParams())
	timed("fuse.RunEnsembleOn", func() { _, _ = fuse.RunEnsembleOn(ctx, r.obs.Sched, fuseDecisions, params, f) })
}

// forcing returns the run's forcing with its storm injected, and its
// scenario.
func (r *replayer) forcing(run *core.RunRequest) (hydro.Forcing, scenario.Scenario, error) {
	id := run.ScenarioID
	if id == "" {
		id = scenario.Baseline
	}
	sc, err := scenario.Get(id)
	if err != nil {
		return hydro.Forcing{}, sc, err
	}
	f, err := r.obs.Forcing(run.CatchmentID)
	if err != nil {
		return f, sc, err
	}
	if run.Storm != nil {
		rain, err := run.Storm.Inject(f.Rain, dataStart.Add(time.Duration(run.StormAtHours)*time.Hour))
		if err != nil {
			return f, sc, err
		}
		f = hydro.Forcing{Rain: rain, PET: f.PET}
	}
	return f, sc, nil
}

// wsPair is a benchmark-owned loopback WebSocket connection: the server
// end is written to, a reader drains the client end.
type wsPair struct {
	srv    *http.Server
	served chan struct{}
	server *ws.Conn
	client *ws.Conn
	done   chan struct{}
}

func newWSPair() (*wsPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for the WS pair: %w", err)
	}
	accepted := make(chan *ws.Conn, 1)
	p := &wsPair{served: make(chan struct{}), done: make(chan struct{})}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c, err := ws.Upgrade(w, r); err == nil {
			accepted <- c
		}
	}), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(ln)
	}()
	p.client, err = ws.Dial("ws://" + ln.Addr().String() + "/")
	if err != nil {
		_ = p.srv.Close()
		<-p.served
		return nil, fmt.Errorf("dialling the WS pair: %w", err)
	}
	select {
	case p.server = <-accepted:
	case <-time.After(5 * time.Second):
		_ = p.client.Close(ws.CloseNormal, "")
		_ = p.srv.Close()
		<-p.served
		return nil, errors.New("WS pair: upgrade never arrived")
	}
	go func() {
		defer close(p.done)
		for {
			if _, err := p.client.ReadMessage(); err != nil {
				return
			}
		}
	}()
	return p, nil
}

func (p *wsPair) close() {
	// Close tears both transports down even when the close frame
	// cannot be sent.
	_ = p.server.Close(ws.CloseNormal, "")
	_ = p.client.Close(ws.CloseNormal, "")
	<-p.done
	_ = p.srv.Close()
	<-p.served
}
