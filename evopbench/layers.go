package main

import (
	"strings"
	"time"
)

// layerMetrics assembles the per-layer metrics of a traced run.
// Counters, ratios and class latencies come from the untraced window u;
// layer timings from the spans of the traced window tw. A timing, class
// or registry histogram the workload's own traffic never exercised is
// read from the probe pr instead, and its metric is named in the
// returned list of probed metrics.
func layerMetrics(st *stack, e *env, u, tw, pr *measured, tr *tracer, rep *replayer, nproc int) (map[string]metric, []string) {
	out := make(map[string]metric)
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	probed := []string{}
	// window returns d, or the probe's alt when d is empty, noting that
	// the named metrics came from the probe.
	window := func(d, alt []time.Duration, names ...string) []time.Duration {
		if len(d) > 0 || len(alt) == 0 {
			return d
		}
		probed = append(probed, names...)
		return alt
	}
	// regMean is a registry histogram's mean over u, else over tw, else
	// over the probe, scaled from seconds.
	regMean := func(metricName, name string, labels map[string]string, scale float64) float64 {
		for i, d := range []regDelta{u.reg, tw.reg, pr.reg} {
			if mean, n := d.histMean(name, labels); n > 0 {
				if i == 2 {
					probed = append(probed, metricName)
				}
				return mean * scale
			}
		}
		return 0
	}

	// Class latencies and sample counts.
	classes := []struct {
		name string
		c    class
	}{{"model", clsModel}, {"read", clsRead}, {"ingest", clsIngest}}
	for _, c := range classes {
		d := window(u.t.byClass[c.c], pr.t.byClass[c.c], c.name+"_p50_ms", c.name+"_p99_ms", c.name+"_samples")
		set(c.name+"_p50_ms", percentileMs(d, 0.50), "ms")
		set(c.name+"_p99_ms", percentileMs(d, 0.99), "ms")
		set(c.name+"_samples", float64(len(d)), "count")
	}
	live := window(u.liveLat, pr.liveLat, "live_delivery_p50_ms", "live_delivery_p99_ms", "live_delivery_samples")
	set("live_delivery_p50_ms", percentileMs(live, 0.50), "ms")
	set("live_delivery_p99_ms", percentileMs(live, 0.99), "ms")
	set("live_delivery_samples", float64(len(live)), "count")
	set("latency_p50_ms", u.p50(), "ms")
	set("latency_p99_ms", percentileMs(u.t.all, 0.99), "ms")
	set("latency_samples", float64(len(u.t.all)), "count")
	set("failed_ratio", ratio(float64(u.t.failed), float64(u.t.attempted)), "ratio")
	set("throughput_rps", u.rps(), "req/s")
	set("response_mb_per_s", u.mbps(), "MB/s")

	// portal: handler time from the ServeHTTP wrapper, by route group.
	spans, probeSpans := tr.byName(false), tr.byName(true)
	spanMs := func(metricName, span string) float64 {
		return percentileMs(window(spans[span], probeSpans[span], metricName), 0.5)
	}
	var handlers []time.Duration
	for name, d := range spans {
		if strings.HasPrefix(name, "portal.ServeHTTP/") {
			handlers = append(handlers, d...)
		}
	}
	set("portal.handler_ms.p50", percentileMs(handlers, 0.50), "ms")
	set("portal.handler_ms.p99", percentileMs(handlers, 0.99), "ms")
	for _, g := range routeGroups {
		set("portal.handler_ms.p50."+g, spanMs("portal.handler_ms.p50."+g, "portal.ServeHTTP/"+g), "ms")
	}
	set("portal.transport_ms.p50", percentileMs(tr.transport(), 0.5), "ms")
	set("portal.allocs_per_req", ratio(float64(u.proc[1].allocs-u.proc[0].allocs), float64(u.t.attempted)), "allocs/req")

	// admission
	set("admission.admit_us", spanMs("admission.admit_us", "admission.Admit+Release")*1e3, "us")
	set("admission.admitted", u.reg.counter("evop_admission_admitted_total", nil), "count")
	set("admission.shed", u.reg.counter("evop_admission_shed_total", nil), "count")
	set("admission.queued", u.reg.counter("evop_admission_queued_total", nil), "count")
	set("admission.degraded", u.reg.counter("evop_admission_degraded_total", nil), "count")

	// runcache
	hits := u.reg.counter("evop_runcache_hits_total", nil)
	lookups := hits + u.reg.counter("evop_runcache_misses_total", nil) + u.reg.counter("evop_runcache_coalesced_total", nil)
	set("runcache.hit_ratio", ratio(hits, lookups), "ratio")
	set("runcache.lookups", lookups, "count")
	set("runcache.evictions", u.reg.counter("evop_runcache_evictions_total", nil), "count")
	set("runcache.lookup_us", spanMs("runcache.lookup_us", "core.RunModelCachedContext")*1e3, "us")

	// model kernels, core and sched
	set("topmodel.run_ms", spanMs("topmodel.run_ms", "topmodel.Model.Run"), "ms")
	steps := rep.work[0]
	if steps.kernel == 0 && rep.work[1].kernel > 0 {
		steps = rep.work[1]
		probed = append(probed, "topmodel.steps_per_s")
	}
	set("topmodel.steps_per_s", ratio(steps.steps, steps.kernel.Seconds()), "1/s")
	set("fuse.ensemble_ms", spanMs("fuse.ensemble_ms", "fuse.RunEnsembleOn"), "ms")
	set("core.model_run_ms", regMean("core.model_run_ms", "evop_model_run_seconds", nil, 1e3), "ms")
	_, runs := u.reg.histMean("evop_model_run_seconds", nil)
	set("core.model_runs", runs, "count")
	set("sched.tasks", u.reg.counter("evop_sched_tasks_total", nil), "count")
	set("sched.task_ms", regMean("sched.task_ms", "evop_sched_task_seconds", nil, 1e3), "ms")

	// timeseries
	set("timeseries.flot_encode_ms", spanMs("timeseries.flot_encode_ms", "timeseries.Series.FlotJSON"), "ms")
	flot := rep.work[0].flotBytes
	if len(flot) == 0 && len(rep.work[1].flotBytes) > 0 {
		flot = rep.work[1].flotBytes
		probed = append(probed, "timeseries.flot_bytes")
	}
	set("timeseries.flot_bytes", median(flot), "bytes")
	set("timeseries.downsample_us", spanMs("timeseries.downsample_us", "timeseries.Downsample")*1e3, "us")
	set("timeseries.downsample_in_points", u.reg.counter("evop_series_downsample_in_points_total", nil), "count")
	set("timeseries.downsample_out_points", u.reg.counter("evop_series_downsample_out_points_total", nil), "count")
	set("series.not_modified", u.reg.counter("evop_series_not_modified_total", nil), "count")
	set("series.downsampled", u.reg.counter("evop_series_downsampled_total", nil), "count")

	// sensor
	set("sensor.history_view_us", spanMs("sensor.history_view_us", "sensor.Network.HistoryView")*1e3, "us")
	set("sensor.aggregate_us", spanMs("sensor.aggregate_us", "sensor.Network.AggregateSeries")*1e3, "us")
	set("sensor.read_stamp_us", spanMs("sensor.read_stamp_us", "sensor.Network.ReadStamp")*1e3, "us")
	set("sensor.ingest_us.append", spanMs("sensor.ingest_us.append", "sensor.Network.Ingest/append")*1e3, "us")
	set("sensor.ingest_us.backdated", spanMs("sensor.ingest_us.backdated", "sensor.Network.Ingest/backdated")*1e3, "us")
	set("sensor.series_queries", u.reg.counter("evop_sensor_series_queries_total", nil), "count")
	set("sensor.aggregate_queries", u.reg.counter("evop_sensor_aggregate_queries_total", nil), "count")
	set("sensor.external_ingests", u.reg.counter("evop_sensor_external_ingest_total", nil), "count")
	histLen := 0
	for _, s := range e.observing {
		if v, err := st.obs.Network.HistoryView(s.id, time.Time{}, st.clk.Now().AddDate(1, 0, 0)); err == nil {
			histLen += len(v)
		}
	}
	set("sensor.history_len", float64(histLen), "count")

	// httpcond, SOS, WPS
	set("httpcond.not_modified_ratio", ratio(float64(u.t.notModified), float64(u.t.conditional)), "ratio")
	set("httpcond.conditional_sent", float64(u.t.conditional), "count")
	set("sos.insert_handler_ms", spanMs("sos.insert_handler_ms", "portal.ServeHTTP/sos_insert"), "ms")
	set("wps.execute_handler_ms", spanMs("wps.execute_handler_ms", "portal.ServeHTTP/wps"), "ms")

	// push and ws
	hub := map[string]string{"hub": "sensors"}
	delivered := u.reg.counter("evop_push_delivered_total", hub)
	set("push.published", u.reg.counter("evop_push_published_total", hub), "count")
	set("push.delivered", delivered, "count")
	set("push.coalesced_ratio", ratio(u.reg.counter("evop_push_coalesced_total", hub), delivered), "ratio")
	set("push.publish_us", regMean("push.publish_us", "evop_push_publish_seconds", hub, 1e6), "us")
	set("ws.frames_written", float64(u.frames), "count")
	set("ws.write_us", spanMs("ws.write_us", "ws.Conn.WriteMessage")*1e3, "us")

	// metrics
	set("metrics.snapshot_ms", spanMs("metrics.snapshot_ms", "metrics.Registry.Snapshot"), "ms")
	set("metrics.scrape_ms", spanMs("metrics.scrape_ms", "portal.ServeHTTP/metrics"), "ms")

	// loadbalancer: set-up is where its control loop runs.
	set("loadbalancer.ticks", st.lbTicks, "count")
	set("loadbalancer.tick_us", ratio(float64(st.history.Microseconds()), st.lbTicks), "us")

	// process, over the untraced window
	wall := u.proc[1].wall.Sub(u.proc[0].wall).Seconds()
	set("process.cpu_util", ratio((u.proc[1].cpu-u.proc[0].cpu).Seconds(), wall*float64(nproc)), "ratio")
	set("process.gc_cycles", float64(u.proc[1].numGC-u.proc[0].numGC), "count")
	set("process.gc_pause_ms", float64(u.proc[1].pauseNs-u.proc[0].pauseNs)/1e6, "ms")

	set("trace.overhead_ratio", ratio(u.rps(), tw.rps()), "ratio")
	return out, probed
}
