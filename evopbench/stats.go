package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"evop/internal/metrics"
)

// percentileMs is the nearest-rank q-quantile of d in milliseconds; a
// failure (failLatency) reads as 1e12 ms, beyond any limit. An empty
// sample reads 0.
func percentileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if s[i] == failLatency {
		return 1e12
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// median is the middle value of v (mean of the middle two), 0 if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, 0 when the base b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// labelsMatch reports whether m carries every name=value in want.
func labelsMatch(m metrics.Metric, want map[string]string) bool {
	for name, value := range want {
		found := false
		for _, l := range m.Labels {
			if l.Name == name && l.Value == value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// counterValue sums every series of a counter (or gauge) named name
// whose labels include want.
func counterValue(s metrics.Snapshot, name string, want map[string]string) float64 {
	var v float64
	for _, m := range s.Metrics {
		if m.Name == name && m.Histogram == nil && labelsMatch(m, want) {
			v += m.Value
		}
	}
	return v
}

// histTotals sums count and sum (in the histogram's unit) over every
// series of a histogram named name whose labels include want.
func histTotals(s metrics.Snapshot, name string, want map[string]string) (count, sum float64) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Histogram != nil && labelsMatch(m, want) {
			count += float64(m.Histogram.Count)
			sum += m.Histogram.Sum
		}
	}
	return count, sum
}

// regDelta is the change of the metrics registry across a window.
type regDelta struct{ before, after metrics.Snapshot }

func (d regDelta) counter(name string, want map[string]string) float64 {
	return counterValue(d.after, name, want) - counterValue(d.before, name, want)
}

// histMean is the mean of the observations a histogram took in the
// window, and how many it took.
func (d regDelta) histMean(name string, want map[string]string) (mean, count float64) {
	c1, s1 := histTotals(d.after, name, want)
	c0, s0 := histTotals(d.before, name, want)
	return ratio(s1-s0, c1-c0), c1 - c0
}

// procSnap is the process's resource use at one instant.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration // user + system
	numGC   uint32
	pauseNs uint64
	allocs  uint64 // heap objects allocated, cumulative
}

func readProc() procSnap {
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	var allocs uint64
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		allocs = s[0].Value.Uint64()
	}
	return procSnap{wall: time.Now(), cpu: cpu, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, allocs: allocs}
}

// heapSampler tracks the peak Go heap in use while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if s[0].Value.Kind() == rtmetrics.KindUint64 {
				h.mu.Lock()
				h.peak = max(h.peak, s[0].Value.Uint64())
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in bytes.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak)
}

// hostMeta describes the host and the run's inputs. A number taken on
// a host with few CPUs measures overhead, not parallel scaling.
func hostMeta(opts options, nproc int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	note := "parallel figures on this host are overhead, not speed-up"
	if nproc > 4 {
		note = "parallel figures may include speed-up"
	}
	return map[string]any{
		"workload":      opts.workload,
		"seed":          opts.seed,
		"seconds":       opts.seconds,
		"trace":         opts.trace,
		"cpu_model":     cpuModel(),
		"nproc":         nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"admission": map[string]any{
			"client_rate_per_s": opts.clientRate, "client_burst": opts.clientBurst,
			"concurrency_limit_and_queues": "package defaults",
		},
		"history_days":  historyDays,
		"setup_repeats": setupRepeats,
		"parallel_note": note,
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
		"connections":   nproc,
		"closed_loop":   true,
	}
}

// cpuModel reads the processor model name, "unknown" where /proc is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
