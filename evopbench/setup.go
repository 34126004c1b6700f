package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"evop/internal/admission"
	"evop/internal/clock"
	"evop/internal/core"
	"evop/internal/portal"
	"evop/internal/sensor"
	"evop/internal/timeseries"
)

// historyDays of simulated sensor history are built before any request:
// long enough that the longest series windows are answered from the
// 120-hour rollup tier, short enough that set-up can be repeated.
const historyDays = 30

// dataStart anchors the simulated clock and the observatory's data
// period, so the sensors and the model forcing cover the same days.
var dataStart = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

// stack is one assembled observatory served on a loopback listener.
type stack struct {
	clk  *clock.Simulated
	obs  *core.Observatory
	srv  *http.Server
	base string // http://127.0.0.1:<port>
	// served is closed when the server goroutine has returned.
	served chan struct{}

	// setup is the wall time from assembly to the first answered
	// request; history the part of it spent advancing the clock, during
	// which lbTicks load-balancer control periods ran.
	setup   time.Duration
	history time.Duration
	lbTicks float64
}

// buildStack assembles a fresh observatory and portal, builds the
// seeded sensor history and control-loop state by advancing the
// simulated clock, serves the portal on 127.0.0.1 through handler (nil
// serves the portal itself) and waits for the first answered request.
func buildStack(opts options, wrap func(http.Handler) http.Handler) (*stack, error) {
	t0 := time.Now()
	clk := clock.NewSimulated(dataStart)
	cfg := core.DefaultConfig(clk)
	cfg.Start = dataStart
	// Only the per-client bucket changes; the concurrency limit, class
	// shares and queues keep their defaults.
	cfg.Admission = &admission.Config{RatePerSecond: opts.clientRate, Burst: opts.clientBurst}
	obs, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("assembling observatory: %w", err)
	}
	p, err := portal.New(obs)
	if err != nil {
		obs.Stop()
		return nil, fmt.Errorf("assembling portal: %w", err)
	}
	obs.Start()
	reg := obs.MetricsRegistry()
	ticks0 := counterValue(reg.Snapshot(), "evop_lb_ticks_total", nil)
	th := time.Now()
	clk.Advance(historyDays * 24 * time.Hour)
	history := time.Since(th)
	ticks := counterValue(reg.Snapshot(), "evop_lb_ticks_total", nil) - ticks0

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		obs.Stop()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	var h http.Handler = p
	if wrap != nil {
		h = wrap(p)
	}
	s := &stack{
		clk: clk, obs: obs,
		srv:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan struct{}),
		history: history,
		lbTicks: ticks,
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	if err := firstRequest(s.base); err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// oneShot sends set-up requests on connections of their own, closed
// after each answer, so no set-up connection outlives its stack.
var oneShot = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

// firstRequest loads the landing map layer, the first thing every user
// group's browser asks for.
func firstRequest(base string) error {
	resp, err := oneShot.Get(base + "/map/layers")
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("first request body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return nil
}

// close stops the server, waits for its goroutine and stops the
// observatory's loops, which also ends every /ws/live stream.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.served
	s.obs.Stop()
}

// stormWindow asks the portal where the widget places its comparison
// storm in Morland, as the widget does before offering the presets.
func stormWindow(base string) (int, error) {
	resp, err := oneShot.Get(base + "/widgets/model/storm-window?catchment=morland")
	if err != nil {
		return 0, fmt.Errorf("storm window: %w", err)
	}
	defer resp.Body.Close()
	var out struct {
		StormAtHours int `json:"stormAtHours"`
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("storm window: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("storm window: %w", err)
	}
	return out.StormAtHours, nil
}

// sensorInfo is what the generator knows about one deployed sensor.
type sensorInfo struct {
	id     string
	webcam bool
}

// env is the read-only picture of the served observatory the request
// generators and output checks work from, plus the little shared state
// generated inputs need to stay unique across clients.
type env struct {
	start, end   time.Time // simulated history span
	forcingSteps int       // hydrograph length of every model run
	stormAt      int       // the widget's storm placement (hours)
	catchments   []string
	sensors      []sensorInfo // every sensor, registration order
	observing    []sensorInfo // non-webcam sensors, which accept ingest

	// snapshot is each non-webcam sensor's history as of the last
	// resnapshot; reads are checked against counts computed from it
	// rather than from the portal. Only live-ingest writes, and it reads
	// back single observations, so a snapshot taken after set-up and
	// again before the probe suffices.
	snapshot map[string][]timeseries.Observation

	mu sync.Mutex
	// refs holds the first body served for each preset run key; every
	// later answer for that key must be byte-identical.
	refs map[string][]byte
	// nextAppend is the sampling time of the next appended observation;
	// backdatedSeq counts the back-dated ones, whose slots start at the
	// seeded backdatedOffset. Together they give every inserted
	// observation a unique (sensor, time) in constant memory.
	nextAppend      time.Time
	backdatedSeq    int
	backdatedOffset int
}

// backdatedStride is prime, so it shares no factor with the slot count
// of any history shorter than a million minutes, and k ↦ (k·stride +
// offset) mod slots visits every back-dated slot once.
const backdatedStride = 1_000_003

// backdatedTime returns the next back-dated sampling time: a second
// inside the history, never on a whole minute (where sampled readings
// sit), that no earlier back-dated insert used. The caller holds e.mu.
func (e *env) backdatedTime() time.Time {
	slots := int(e.end.Sub(e.start)/time.Minute) * 59
	slot := (e.backdatedSeq*backdatedStride + e.backdatedOffset) % slots
	e.backdatedSeq++
	return e.start.Add(time.Duration(slot/59)*time.Minute + time.Duration(slot%59+1)*time.Second)
}

// newEnv snapshots the stack after set-up; seed places the back-dated
// inserts.
func newEnv(s *stack, seed int64) (*env, error) {
	f, err := s.obs.Forcing("morland")
	if err != nil {
		return nil, fmt.Errorf("reading forcing: %w", err)
	}
	e := &env{
		start:        dataStart,
		end:          s.clk.Now(),
		forcingSteps: f.Rain.Len(),
		snapshot:     make(map[string][]timeseries.Observation),
		refs:         make(map[string][]byte),
		nextAppend:   s.clk.Now().Add(time.Second),
	}
	e.backdatedOffset = int(rand.New(rand.NewSource(seed)).Int31())
	for _, c := range s.obs.Catchments.All() {
		e.catchments = append(e.catchments, c.ID)
	}
	for _, sn := range s.obs.Network.Sensors() {
		info := sensorInfo{id: sn.ID, webcam: sn.Kind == sensor.Webcam}
		e.sensors = append(e.sensors, info)
		if info.webcam {
			continue
		}
		e.observing = append(e.observing, info)
	}
	if len(e.observing) == 0 {
		return nil, errors.New("no observation sensors deployed")
	}
	if err := e.resnapshot(s.obs); err != nil {
		return nil, err
	}
	e.stormAt, err = stormWindow(s.base)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// resnapshot copies every observation sensor's current history, so
// expected counts account for the observations inserted so far. It must
// not run while requests are being generated.
func (e *env) resnapshot(obs *core.Observatory) error {
	for _, s := range e.observing {
		h, err := obs.Network.History(s.id, time.Time{}, e.end.AddDate(1, 0, 0))
		if err != nil {
			return fmt.Errorf("snapshotting %s: %w", s.id, err)
		}
		e.snapshot[s.id] = h
	}
	return nil
}

// countIn returns how many snapshot observations of id fall in [from, to).
func (e *env) countIn(id string, from, to time.Time) int {
	obs := e.snapshot[id]
	return lowerBound(obs, to) - lowerBound(obs, from)
}

// lowerBound is the index of the first observation at or after t.
func lowerBound(obs []timeseries.Observation, t time.Time) int {
	lo, hi := 0, len(obs)
	for lo < hi {
		m := (lo + hi) / 2
		if obs[m].Time.Before(t) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// reference returns the stored body for key, storing body if it is the
// first; ok reports whether body matches the reference.
func (e *env) reference(key string, body []byte) (ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ref, seen := e.refs[key]
	if !seen {
		e.refs[key] = append([]byte(nil), body...)
		return true
	}
	return string(ref) == string(body)
}
