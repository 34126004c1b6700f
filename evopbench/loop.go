package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// failLatency stands for a failed request in latency percentiles: a
// failure misses any latency limit.
const failLatency = time.Duration(math.MaxInt64)

// sliceLen is the length of the sub-windows a timed window is cut into
// for its per-slice rates.
const sliceLen = time.Second

// tally is what one window of closed-loop traffic produced.
type tally struct {
	attempted, failed int
	bytes             float64 // response body bytes of successful answers
	// latencies selects whether every request's latency is kept in all
	// and byClass. End-to-end windows keep none, so the generator's
	// memory stays constant and peak_heap_mb is the program's.
	latencies   bool
	all         []time.Duration // every request; failures as failLatency
	byClass     [numClasses][]time.Duration
	kinds       [numKinds]int
	conditional int // requests sent with If-None-Match
	notModified int // of which answered 304
	errs        []string
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.bytes += o.bytes
	t.all = append(t.all, o.all...)
	for c := range t.byClass {
		t.byClass[c] = append(t.byClass[c], o.byClass[c]...)
	}
	for k := range t.kinds {
		t.kinds[k] += o.kinds[k]
	}
	t.conditional += o.conditional
	t.notModified += o.notModified
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// record counts one exchange that took lat and delivered n body bytes.
func (t *tally) record(req *request, lat time.Duration, n int, err error) {
	t.attempted++
	t.kinds[req.kind]++
	if err != nil {
		t.failed++
		lat = failLatency
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s %s: %v", kindNames[req.kind], req.target, err))
		}
	} else {
		t.bytes += float64(n)
	}
	if t.latencies {
		t.all = append(t.all, lat)
		t.byClass[req.kind.class()] = append(t.byClass[req.kind.class()], lat)
	}
}

// slice is one sub-window of a timed window.
type slice struct {
	ok, bytes float64       // successful answers and their body bytes
	elapsed   time.Duration // until the slice's last answer arrived
	p50       float64       // median latency in ms, failures included (latency-keeping windows only)
	// hostSpeed is the mean host speed, relative to the reference host,
	// of the calibration bursts before and after the slice; 0 in
	// uncalibrated windows.
	hostSpeed float64
}

// client is one closed-loop connection's generator and read buffer.
type client struct {
	rid string // request-ID prefix of its traced requests
	gen *gen
	buf bytes.Buffer
	seq int
}

// loop runs windows of closed-loop traffic against one stack.
type loop struct {
	st      *stack
	hc      *http.Client
	clients []*client
	live    *liveWatch // nil when no /ws/live subscriber is open
	rep     *replayer  // nil in untraced runs
	cal     *calibrator
	// latencies keeps every request's latency (per-layer runs only).
	latencies bool
	// phase numbers windows so live frames are matched to the window
	// whose insert produced them.
	phase int
}

// window runs every client closed loop for d: each sends its next
// request only after the previous answer was read in full. It returns
// the merged tally and the elapsed wall time, which ends when the last
// in-flight answer arrives.
func (lp *loop) window(d time.Duration, traced bool) (*tally, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	parts := make([]*tally, len(lp.clients))
	var wg sync.WaitGroup
	for i, c := range lp.clients {
		parts[i] = &tally{latencies: lp.latencies}
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			for time.Now().Before(end) {
				lp.exchange(c, c.gen.next(), traced, t)
			}
		}(c, parts[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &tally{latencies: lp.latencies}
	for _, p := range parts {
		total.add(p)
	}
	return total, elapsed
}

// slices runs n back-to-back windows of sliceLen and returns their
// merged tally and per-slice figures. With calibrate set, a host
// calibration burst runs before each slice and after the last, while
// every client is idle between answers.
func (lp *loop) slices(n int, traced, calibrate bool) (*tally, []slice) {
	total := &tally{latencies: lp.latencies}
	out := make([]slice, 0, n)
	var before float64
	if calibrate {
		before = lp.cal.speed()
	}
	for i := 0; i < n; i++ {
		t, elapsed := lp.window(sliceLen, traced)
		s := slice{ok: float64(t.attempted - t.failed), bytes: t.bytes, elapsed: elapsed}
		if lp.latencies {
			s.p50 = percentileMs(t.all, 0.5)
		}
		if calibrate {
			after := lp.cal.speed()
			s.hostSpeed = (before + after) / 2
			before = after
		}
		out = append(out, s)
		total.add(t)
	}
	return total, out
}

// exchange sends one request, reads the whole answer, checks it and
// records the outcome; traced exchanges also record the client span and
// queue the request for replay through the layers it exercised once the
// window has ended.
func (lp *loop) exchange(c *client, req *request, traced bool, t *tally) {
	c.seq++
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequest(req.method, lp.st.base+req.target, body)
	if err != nil {
		t.record(req, 0, 0, err)
		return
	}
	if req.ifNoneMatch != "" {
		hreq.Header.Set("If-None-Match", req.ifNoneMatch)
		t.conditional++
	}
	if req.body != nil {
		if req.kind == kInsert {
			hreq.Header.Set("Content-Type", "application/xml")
		} else {
			hreq.Header.Set("Content-Type", "application/json")
		}
	}
	var rid string
	if traced {
		rid = c.rid + strconv.Itoa(c.seq)
		hreq.Header.Set("X-Request-ID", rid)
	}

	start := time.Now()
	if req.kind == kInsert && lp.live != nil {
		lp.live.expect(req, lp.phase, start)
	}
	resp, err := lp.hc.Do(hreq)
	var status int
	var hdr http.Header
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status, hdr = resp.StatusCode, resp.Header
	}
	end := time.Now()
	got := c.buf.Bytes()
	if err != nil {
		got = nil
	} else {
		err = c.gen.check(req, status, hdr, got)
		if err == nil && traced && hdr.Get("X-Request-ID") != rid {
			err = fmt.Errorf("request ID %q came back as %q", rid, hdr.Get("X-Request-ID"))
		}
	}
	if status == http.StatusNotModified {
		t.notModified++
	}
	t.record(req, end.Sub(start), len(got), err)
	if err != nil {
		return
	}
	c.gen.after(req, status, hdr, got)
	if traced {
		lp.rep.tr.add(rid, 1, 0, "client."+routeGroup(req.method, req.path), start, end)
		lp.rep.enqueue(rid, req)
	}
}
