package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"evop/internal/core"
	"evop/internal/hydro/topmodel"
	"evop/internal/scenario"
	"evop/internal/weather"
)

// defaultSeed is the seed a run uses when --seed is omitted. Claims of
// a gain are re-checked on the held-out seed 7, which tuning never used.
const defaultSeed = 1

// kind is one type of generated request.
type kind int

const (
	kPreset   kind = iota // widget preset scenario with the widget's storm: a run-cache hit
	kFresh                // fresh storm placement and sliders: a TOPMODEL miss
	kFuse                 // fresh FUSE ensemble run on the sched pool: a miss
	kRepeat               // the client's previous fresh run again: a hit
	kWPS                  // WPS Execute of TOPMODEL
	kLatest               // /sensors/<id>/latest
	kSeries               // 24 h raw /series
	kPoints               // long window through ?points= (LTTB)
	kAgg                  // long window through ?agg=&step= (rollup index)
	kMap                  // /map/layers
	kFusion               // /widgets/fusion with sparklines
	kSOSGet               // SOS GetObservation
	kReval                // If-None-Match revalidation of an earlier series/SOS read
	kMetrics              // operator /metrics scrape
	kInsert               // SOS InsertObservation
	kReadBack             // SOS read of the observation just inserted
	numKinds
)

var kindNames = [numKinds]string{
	"preset", "fresh", "fuse", "repeat", "wps", "latest", "series", "points", "agg",
	"map", "fusion", "sos_get", "reval", "metrics", "insert", "readback",
}

// class groups requests for the per-class latency metrics.
type class int

const (
	clsModel  class = iota // /widgets/model/run and WPS Execute
	clsRead                // sensor, map, fusion and SOS GET reads
	clsIngest              // SOS InsertObservation
	clsOther               // /metrics scrapes
	numClasses
)

func (k kind) class() class {
	switch k {
	case kPreset, kFresh, kFuse, kRepeat, kWPS:
		return clsModel
	case kInsert:
		return clsIngest
	case kMetrics:
		return clsOther
	}
	return clsRead
}

// routeGroup names the portal route family a request path belongs to;
// the client and the server-side span wrapper use the same grouping.
func routeGroup(method, path string) string {
	switch {
	case path == "/widgets/model/run":
		return "model"
	case path == "/wps":
		return "wps"
	case strings.HasPrefix(path, "/sensors/"):
		return "sensor"
	case path == "/map/layers":
		return "map"
	case path == "/widgets/fusion":
		return "fusion"
	case path == "/sos" && method == http.MethodPost:
		return "sos_insert"
	case path == "/sos":
		return "sos_get"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

var routeGroups = []string{"model", "wps", "sensor", "map", "fusion", "sos_get", "sos_insert", "metrics"}

// weighted is one entry of a workload's request mix.
type weighted struct {
	k kind
	w int
}

// workload is one traffic mix and its connection layout.
type workload struct {
	mix []weighted
	// readBackShare is the chance that an insert is followed by a read
	// of the same observation on the same connection.
	readBackShare float64
	// backdatedShare is the chance that an inserted observation is
	// late-arriving data stamped inside the existing history.
	backdatedShare float64
	// live marks the workload whose connections are one ingest client
	// plus nproc-1 /ws/live subscribers; otherwise every one of the
	// nproc connections is a closed-loop HTTP client.
	live bool
}

// workloads are the benchmark's traffic mixes. Why each exists:
//
//   - model-widget: modelling traffic from farmers, policy makers and
//     scientists. Presets share keys across users (run-cache hits whose
//     cost is the Flot/JSON encoding); fresh storms and sliders over a
//     key space far larger than the 256-entry run cache miss and run the
//     TOPMODEL kernel; FUSE misses fan out on the sched pool.
//   - sensor-reads: public and community dashboards, no writes. Cost sits
//     in the portal middleware, admission, net/http, the sensor store,
//     timeseries and metrics; no kernel or run-cache work.
//   - live-ingest: gauges pushing observations (some back-dated into
//     history) while browsers watch /ws/live; stresses SOS XML decoding,
//     sensor ingest and rollups, the push hub and the WS writer.
//
// The request kinds follow the storyboards of internal/journey, which
// mirror the interests the paper records for each user group. The
// weights and shares are not: no access log or measured mix backs them,
// so each is an unverified assumption. In model-widget, the preset
// weight sets how much of the run is run-cache hits and Flot/JSON
// encoding, the fresh weight the TOPMODEL kernel, the FUSE weight the
// sched pool and the WPS weight the ogc/wps handler. In sensor-reads,
// latest weights the sensor store's newest-reading path, series and SOS
// the raw history views, points the LTTB downsampler, agg the rollup
// index, map and fusion their widgets, reval httpcond and metrics the
// registry snapshot. In live-ingest, the back-dated share weights the
// copying insert path and the read-back share the SOS read path.
var workloads = map[string]workload{
	"model-widget": {mix: []weighted{
		{kPreset, 50}, {kFresh, 27}, {kFuse, 10}, {kRepeat, 8}, {kWPS, 5},
	}},
	"sensor-reads": {mix: []weighted{
		{kLatest, 18}, {kSeries, 18}, {kPoints, 12}, {kAgg, 12}, {kMap, 7},
		{kFusion, 7}, {kSOSGet, 12}, {kReval, 12}, {kMetrics, 2},
	}},
	"live-ingest": {
		mix:            []weighted{{kInsert, 1}},
		readBackShare:  0.3,
		backdatedShare: 0.2,
		live:           true,
	},
}

// request is one generated request plus the inputs that produced it,
// which the output checks and the traced replay reuse.
type request struct {
	kind        kind
	method      string
	path        string // path only, for grouping
	target      string // path and query
	body        []byte
	ifNoneMatch string

	run     *core.RunRequest // model kinds
	sensor  string
	from    time.Time
	to      time.Time
	points  int
	agg     string
	step    time.Duration
	buckets int
	at      time.Time
	value   float64
	// backdated marks an insert stamped inside the existing history.
	backdated bool
	// want is the expected point or bucket count; -1 when unchecked.
	want int
	// ref is a body the answer must equal byte for byte (a repeat of
	// the client's previous fresh run).
	ref []byte
	// refKey names a shared reference body (presets).
	refKey string
}

// etagEntry is a read the client may later revalidate.
type etagEntry struct {
	target, path, etag, sensor string
}

// gen is one client's seeded request stream plus the state that later
// requests depend on (its last fresh run, readable ETags, its last
// insert).
type gen struct {
	rng *rand.Rand
	env *env
	wl  workload

	lastFresh     *request
	lastFreshBody []byte
	etags         []etagEntry
	lastInsert    *request
	readBackNext  bool
}

// maxETags bounds each client's list of revalidatable reads.
const maxETags = 64

func newGen(e *env, wl workload, seed int64, client int) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17)), env: e, wl: wl}
}

// next draws the client's next request from its workload mix.
func (g *gen) next() *request {
	if g.readBackNext {
		g.readBackNext = false
		return g.make(kReadBack)
	}
	total := 0
	for _, m := range g.wl.mix {
		total += m.w
	}
	r := g.rng.Intn(total)
	for _, m := range g.wl.mix {
		if r < m.w {
			return g.make(m.k)
		}
		r -= m.w
	}
	panic("unreachable: weights exhausted")
}

// make builds one request of kind k. Kinds that depend on earlier
// answers fall back to the request that creates that state.
func (g *gen) make(k kind) *request {
	e, rng := g.env, g.rng
	switch k {
	case kPreset:
		scns := scenario.All()
		sc := scns[rng.Intn(len(scns))]
		return g.modelRequest(k, &core.RunRequest{
			CatchmentID: "morland", Model: "topmodel", ScenarioID: sc.ID,
			Storm: widgetStorm(), StormAtHours: e.stormAt,
		})
	case kFresh:
		req := &core.RunRequest{
			CatchmentID: e.catchments[rng.Intn(len(e.catchments))], Model: "topmodel",
			ScenarioID: randScenario(rng), Storm: randStorm(rng), StormAtHours: g.stormHour(),
		}
		if rng.Intn(2) == 0 {
			req.TOPMODELParams = g.sliders(req.ScenarioID)
		}
		return g.modelRequest(k, req)
	case kFuse:
		return g.modelRequest(k, &core.RunRequest{
			CatchmentID: e.catchments[rng.Intn(len(e.catchments))], Model: "fuse",
			ScenarioID: randScenario(rng), Storm: randStorm(rng), StormAtHours: g.stormHour(),
		})
	case kRepeat:
		if g.lastFresh == nil {
			return g.make(kFresh)
		}
		req := g.modelRequest(k, g.lastFresh.run)
		req.ref = g.lastFreshBody
		return req
	case kWPS:
		c := e.catchments[rng.Intn(len(e.catchments))]
		sc := randScenario(rng)
		at := g.stormHour()
		depth := float64(20 + rng.Intn(80))
		inputs := fmt.Sprintf("catchment=%s;scenario=%s;stormDepthMm=%g;stormHours=6;stormAtHours=%d", c, sc, depth, at)
		return &request{
			kind: k, method: http.MethodGet, path: "/wps",
			target: "/wps?service=WPS&request=Execute&identifier=topmodel&datainputs=" + url.QueryEscape(inputs),
			run: &core.RunRequest{
				CatchmentID: c, Model: "topmodel", ScenarioID: sc, StormAtHours: at,
				Storm: &weather.DesignStorm{TotalDepthMM: depth, Duration: 6 * time.Hour, PeakFraction: 0.4},
			},
			want: -1,
		}
	case kLatest:
		s := e.sensors[rng.Intn(len(e.sensors))]
		return &request{kind: k, method: http.MethodGet, path: "/sensors/", target: "/sensors/" + s.id + "/latest", sensor: s.id, want: -1}
	case kSeries:
		s := e.observing[rng.Intn(len(e.observing))]
		to := g.minuteIn(e.start.Add(24*time.Hour), e.end)
		from := to.Add(-24 * time.Hour)
		return &request{
			kind: k, method: http.MethodGet, path: "/sensors/", sensor: s.id, from: from, to: to,
			target: "/sensors/" + s.id + "/series?from=" + rfc(from) + "&to=" + rfc(to),
			want:   e.countIn(s.id, from, to),
		}
	case kPoints:
		s := e.observing[rng.Intn(len(e.observing))]
		span := []time.Duration{7 * 24 * time.Hour, 14 * 24 * time.Hour, 28 * 24 * time.Hour}[rng.Intn(3)]
		to := g.minuteIn(e.start.Add(span), e.end)
		from := to.Add(-span)
		points := []int{100, 300, 1000}[rng.Intn(3)]
		return &request{
			kind: k, method: http.MethodGet, path: "/sensors/", sensor: s.id, from: from, to: to, points: points,
			target: "/sensors/" + s.id + "/series?from=" + rfc(from) + "&to=" + rfc(to) + "&points=" + strconv.Itoa(points),
			want:   e.countIn(s.id, from, to),
		}
	case kAgg:
		return g.aggRequest()
	case kMap:
		target := "/map/layers"
		if rng.Intn(2) == 0 {
			target += "?catchment=" + e.catchments[rng.Intn(len(e.catchments))]
		}
		return &request{kind: k, method: http.MethodGet, path: "/map/layers", target: target, want: -1}
	case kFusion:
		c := e.catchments[rng.Intn(len(e.catchments))]
		at := g.minuteIn(e.start.Add(24*time.Hour), e.end)
		points := []int{24, 48}[rng.Intn(2)]
		return &request{
			kind: k, method: http.MethodGet, path: "/widgets/fusion", at: at, points: points, sensor: c,
			target: "/widgets/fusion?catchment=" + c + "&at=" + rfc(at) + "&points=" + strconv.Itoa(points),
			want:   -1,
		}
	case kSOSGet:
		s := e.observing[rng.Intn(len(e.observing))]
		to := g.minuteIn(e.start.Add(24*time.Hour), e.end)
		from := to.Add(-24 * time.Hour)
		return &request{
			kind: k, method: http.MethodGet, path: "/sos", sensor: s.id, from: from, to: to,
			target: sosGet(s.id, from, to), want: e.countIn(s.id, from, to),
		}
	case kReval:
		if len(g.etags) == 0 {
			return g.make(kSeries)
		}
		et := g.etags[rng.Intn(len(g.etags))]
		return &request{kind: k, method: http.MethodGet, path: et.path, target: et.target, ifNoneMatch: et.etag, sensor: et.sensor, want: -1}
	case kMetrics:
		target := "/metrics"
		if rng.Intn(2) == 0 {
			target += "?format=prometheus"
		}
		return &request{kind: k, method: http.MethodGet, path: "/metrics", target: target, want: -1}
	case kInsert:
		return g.insertRequest()
	case kReadBack:
		in := g.lastInsert
		if in == nil {
			return g.make(kInsert)
		}
		return &request{
			kind: k, method: http.MethodGet, path: "/sos", sensor: in.sensor, at: in.at, value: in.value,
			from: in.at, to: in.at.Add(time.Second),
			target: sosGet(in.sensor, in.at, in.at.Add(time.Second)), want: 1,
		}
	}
	panic(fmt.Sprintf("unknown kind %d", k))
}

func (g *gen) modelRequest(k kind, run *core.RunRequest) *request {
	body, err := json.Marshal(run)
	if err != nil {
		panic(fmt.Sprintf("encoding run request: %v", err)) // a RunRequest always encodes
	}
	req := &request{
		kind: k, method: http.MethodPost, path: "/widgets/model/run", target: "/widgets/model/run",
		body: body, run: run, want: -1,
	}
	if k == kPreset {
		req.refKey = string(body)
	}
	return req
}

// widgetStorm is the comparison storm the LEFT widget injects.
func widgetStorm() *weather.DesignStorm {
	return &weather.DesignStorm{TotalDepthMM: 60, Duration: 6 * time.Hour, PeakFraction: 0.4}
}

func randStorm(rng *rand.Rand) *weather.DesignStorm {
	return &weather.DesignStorm{
		TotalDepthMM: float64(20 + rng.Intn(80)),
		Duration:     time.Duration(3+rng.Intn(10)) * time.Hour,
		PeakFraction: 0.4,
	}
}

func randScenario(rng *rand.Rand) string {
	scns := scenario.All()
	return scns[rng.Intn(len(scns))].ID
}

// stormHour places a storm anywhere it fits inside the forcing record
// with two days of response after it.
func (g *gen) stormHour() int {
	return 24 + g.rng.Intn(g.env.forcingSteps-96)
}

// sliders draws the widget's TOPMODEL slider values, two decimals each,
// that stay valid once the scenario adjusts them.
func (g *gen) sliders(scenarioID string) *topmodel.Params {
	sc, err := scenario.Get(scenarioID)
	if err != nil {
		panic(fmt.Sprintf("scenario %s: %v", scenarioID, err)) // IDs come from scenario.All
	}
	r2 := func(lo, hi float64) float64 { return float64(int((lo+g.rng.Float64()*(hi-lo))*100)) / 100 }
	for {
		p := topmodel.DefaultParams()
		p.M = r2(12, 40)
		p.LnTe = r2(4, 7)
		p.SRMax = r2(25, 60)
		p.SR0 = r2(0, 3)
		p.TD = r2(1, 4)
		if sc.ApplyTOPMODEL(p).Validate() == nil {
			return &p
		}
	}
}

// minuteIn returns a whole-minute instant in [lo, hi].
func (g *gen) minuteIn(lo, hi time.Time) time.Time {
	n := int(hi.Sub(lo) / time.Minute)
	return lo.Add(time.Duration(g.rng.Intn(n+1)) * time.Minute)
}

// aggRequest asks for a long window in rollup buckets. Windows start on
// an epoch-aligned bucket boundary so the coarse tiers answer whole
// buckets; agg=count keeps empty buckets, the others skip them.
func (g *gen) aggRequest() *request {
	e, rng := g.env, g.rng
	shapes := []struct {
		step time.Duration
		span time.Duration
	}{
		{time.Hour, 7 * 24 * time.Hour},
		{6 * time.Hour, 21 * 24 * time.Hour},
		{120 * time.Hour, 25 * 24 * time.Hour},
	}
	sh := shapes[rng.Intn(len(shapes))]
	s := e.observing[rng.Intn(len(e.observing))]
	first := e.start.Truncate(sh.step)
	if first.Before(e.start) {
		first = first.Add(sh.step)
	}
	slots := int(e.end.Sub(first)-sh.span) / int(sh.step)
	if slots < 0 {
		slots = 0
	}
	from := first.Add(time.Duration(rng.Intn(slots+1)) * sh.step)
	to := from.Add(sh.span)
	buckets := int(sh.span / sh.step)
	agg := []string{"mean", "max", "count"}[rng.Intn(3)]
	want := buckets
	if agg != "count" {
		want = 0
		for i := 0; i < buckets; i++ {
			b := from.Add(time.Duration(i) * sh.step)
			if e.countIn(s.id, b, b.Add(sh.step)) > 0 {
				want++
			}
		}
	}
	return &request{
		kind: kAgg, method: http.MethodGet, path: "/sensors/", sensor: s.id,
		from: from, to: to, agg: agg, step: sh.step, buckets: buckets,
		target: "/sensors/" + s.id + "/series?from=" + rfc(from) + "&to=" + rfc(to) +
			"&agg=" + agg + "&step=" + sh.step.String(),
		want: want,
	}
}

// insertRequest builds one InsertObservation with a (sensor, time) no
// other generated insert uses: appended observations step one second
// past the newest, back-dated ones take the env's next back-dated slot.
func (g *gen) insertRequest() *request {
	e, rng := g.env, g.rng
	s := e.observing[rng.Intn(len(e.observing))]
	back := rng.Float64() < g.wl.backdatedShare
	value := float64(1+rng.Intn(50000)) / 1000
	e.mu.Lock()
	var at time.Time
	if back {
		at = e.backdatedTime()
	} else {
		at = e.nextAppend
		e.nextAppend = e.nextAppend.Add(time.Second)
	}
	e.mu.Unlock()
	body := `<sos:InsertObservation xmlns:sos="http://www.opengis.net/sos/1.0" xmlns:om="http://www.opengis.net/om/1.0">` +
		`<om:Observation><om:procedure>` + s.id + `</om:procedure><om:samplingTime>` + rfc(at) +
		`</om:samplingTime><om:result>` + formatValue(value) + `</om:result></om:Observation></sos:InsertObservation>`
	req := &request{
		kind: kInsert, method: http.MethodPost, path: "/sos", target: "/sos", body: []byte(body),
		sensor: s.id, at: at, value: value, backdated: back, want: -1,
	}
	g.lastInsert = req
	g.readBackNext = rng.Float64() < g.wl.readBackShare
	return req
}

func sosGet(id string, from, to time.Time) string {
	return "/sos?service=SOS&request=GetObservation&procedure=" + id + "&from=" + rfc(from) + "&to=" + rfc(to)
}

func rfc(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// formatValue renders a float the way encoding/xml writes it back.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// after records what the answer lets later requests do.
func (g *gen) after(req *request, status int, hdr http.Header, body []byte) {
	if status != http.StatusOK {
		return
	}
	switch req.kind {
	case kFresh:
		g.lastFresh = req
		g.lastFreshBody = append(g.lastFreshBody[:0], body...)
	case kSeries, kPoints, kAgg, kSOSGet:
		if tag := hdr.Get("ETag"); tag != "" {
			ent := etagEntry{target: req.target, path: req.path, etag: tag, sensor: req.sensor}
			if len(g.etags) < maxETags {
				g.etags = append(g.etags, ent)
			} else {
				g.etags[g.rng.Intn(maxETags)] = ent
			}
		}
	}
}

// check verifies one answer; a non-nil error is a failed output check.
func (g *gen) check(req *request, status int, hdr http.Header, body []byte) error {
	if req.kind == kReval {
		if status != http.StatusNotModified {
			return fmt.Errorf("revalidation answered %d, want 304", status)
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	switch req.kind {
	case kPreset, kFresh, kFuse, kRepeat:
		return g.checkModel(req, hdr, body)
	case kWPS:
		if !bytes.Contains(body, []byte("ProcessSucceeded")) || !bytes.Contains(body, []byte("hydrograph")) {
			return fmt.Errorf("WPS execute did not succeed: %.200s", body)
		}
	case kLatest:
		if !bytes.Contains(body, []byte(`"sensorId":"`+req.sensor+`"`)) {
			return fmt.Errorf("latest reading is not %s's", req.sensor)
		}
	case kSeries:
		if n := flotPairs(body); n != req.want {
			return fmt.Errorf("raw series has %d points, history view has %d", n, req.want)
		}
	case kPoints:
		n := flotPairs(body)
		if n > req.points || (req.want > 0 && n < 1) || (req.want <= req.points && n != req.want) {
			return fmt.Errorf("points=%d answered %d of %d points", req.points, n, req.want)
		}
	case kAgg:
		if n := flotPairs(body); n != req.want {
			return fmt.Errorf("agg=%s over %d buckets answered %d, want %d", req.agg, req.buckets, n, req.want)
		}
	case kMap:
		if !bytes.Contains(body, []byte(`"FeatureCollection"`)) {
			return fmt.Errorf("map layer is not a FeatureCollection")
		}
	case kFusion:
		if !bytes.Contains(body, []byte(`"temperatureSeries"`)) || !bytes.Contains(body, []byte(`"frame"`)) {
			return fmt.Errorf("fusion answer lacks its series or frame: %.200s", body)
		}
	case kSOSGet:
		if n := bytes.Count(body, []byte("<om:member>")); n != req.want {
			return fmt.Errorf("SOS returned %d observations, history view has %d", n, req.want)
		}
	case kMetrics:
		want := `"http"`
		if strings.Contains(req.target, "prometheus") {
			want = "evop_http_request_seconds"
		}
		if !bytes.Contains(body, []byte(want)) {
			return fmt.Errorf("metrics scrape lacks %s", want)
		}
	case kInsert:
		if !bytes.Contains(body, []byte("AssignedObservationId")) {
			return fmt.Errorf("insert not acknowledged: %.200s", body)
		}
	case kReadBack:
		if n := bytes.Count(body, []byte("<om:member>")); n != 1 {
			return fmt.Errorf("read-back of %s@%s found %d observations, want 1", req.sensor, rfc(req.at), n)
		}
		if !bytes.Contains(body, []byte("<om:samplingTime>"+rfc(req.at)+"</om:samplingTime>")) ||
			!bytes.Contains(body, []byte("<om:result>"+formatValue(req.value)+"</om:result>")) {
			return fmt.Errorf("read-back of %s@%s lacks the inserted value %s", req.sensor, rfc(req.at), formatValue(req.value))
		}
	}
	return nil
}

// checkModel verifies a widget model run: the hydrograph spans the
// forcing record, the peak is positive, cache hits are byte-identical
// to the miss that filled them.
func (g *gen) checkModel(req *request, hdr http.Header, body []byte) error {
	cache := hdr.Get("X-Cache")
	i := bytes.Index(body, []byte(`"hydrograph":`))
	if i < 0 {
		return fmt.Errorf("model run has no hydrograph: %.200s", body)
	}
	if n := flotPairs(body[i+len(`"hydrograph":`):]); n != g.env.forcingSteps {
		return fmt.Errorf("hydrograph has %d steps, forcing has %d", n, g.env.forcingSteps)
	}
	if peak := jsonNumber(body, `"peakMm":`); !(peak > 0) {
		return fmt.Errorf("peakMm %v, want > 0", peak)
	}
	switch {
	case req.refKey != "":
		if !g.env.reference(req.refKey, body) {
			return fmt.Errorf("preset %s answer (X-Cache %s) differs from its first answer", req.run.ScenarioID, cache)
		}
	case req.ref != nil:
		if cache != "hit" {
			return fmt.Errorf("repeated run answered X-Cache %q, want hit", cache)
		}
		if !bytes.Equal(req.ref, body) {
			return fmt.Errorf("cache hit differs from the miss that filled it")
		}
	}
	return nil
}

// flotPairs counts the [t,v] pairs of the Flot array b starts with.
func flotPairs(b []byte) int {
	depth, pairs := 0, 0
	for _, c := range b {
		switch c {
		case '[':
			depth++
			if depth == 2 {
				pairs++
			}
		case ']':
			depth--
			if depth == 0 {
				return pairs
			}
		}
	}
	return -1
}

// jsonNumber parses the number following key in b, NaN when absent.
func jsonNumber(b []byte, key string) float64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return math.NaN()
	}
	rest := b[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(string(rest[:j]), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
