// Command evopbench is the EVOp end-to-end benchmark. It assembles an
// observatory and its portal on a simulated clock, serves the portal on a
// loopback listener and drives it, closed loop, with one of three seeded
// traffic mixes (see workload.go):
//
//	model-widget  the LEFT modelling widget: cached presets, fresh
//	              storm/slider runs, FUSE ensembles, WPS Execute
//	sensor-reads  public dashboards: latest, series (raw, LTTB, rollup),
//	              map, fusion, SOS, 304 revalidations, /metrics scrapes
//	live-ingest   community gauges POSTing SOS InsertObservation while
//	              browsers watch /ws/live
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash evopbench/run.sh --workload sensor-reads --seed 1 --seconds 20 \
//	    --trace 0 --client-rate 1e9 --client-burst 1e9
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured untraced, with the rates scaled to a
// reference host speed; with --trace 1 they are the per-layer ones, from
// an untraced window (counters, class latencies, unscaled rates)
// followed by a traced window (layer timings). The line before it is the
// run's host and input metadata. The process exits 1 when any output
// check failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// deadline bounds a whole run, so a wedged run exits with an error
// instead of hanging.
const deadline = 170 * time.Second

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// clientRate and clientBurst replace the admission controller's
	// per-client token bucket. Every generated request arrives from
	// 127.0.0.1 and the simulated clock does not advance while requests
	// are timed, so the default bucket would never refill.
	clientRate  float64
	clientBurst float64
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("evopbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: model-widget, sensor-reads or live-ingest")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "one-second slices in the timed window (a traced run splits them in two)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.Float64Var(&o.clientRate, "client-rate", 0, "admission per-client refill rate, requests/s (required)")
	fs.Float64Var(&o.clientBurst, "client-burst", 0, "admission per-client burst (required)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.clientRate <= 0 || o.clientBurst <= 0 {
		return o, errors.New("--client-rate and --client-burst must be set explicitly and positive")
	}
	return o, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "evopbench:", err)
		os.Exit(2)
	}
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "evopbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	res, meta, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evopbench:", err)
		os.Exit(1)
	}
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "evopbench: encoding metadata:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evopbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(metaLine))
	fmt.Println(string(resLine))
	if !res.Correct {
		os.Exit(1)
	}
}
