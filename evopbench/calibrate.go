package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const (
	// computeBurst and echoBurst are the lengths of the two halves of
	// one host calibration burst.
	computeBurst = 200 * time.Millisecond
	echoBurst    = 100 * time.Millisecond
	// refCompute (compute units per second per CPU) and refRoundTrips
	// (loopback round trips per second) are the rates of the reference
	// host the ref metrics scale to: about the medians of the 2-vCPU
	// Intel Xeon cloud host the benchmark was built on.
	refCompute    = 2500.0
	refRoundTrips = 65000.0
	// calValues numbers are formatted per compute unit, and
	// calCopyBytes copied: more than the caches of a small host hold.
	calValues    = 2048
	calCopyBytes = 1 << 20
	calFmtBytes  = 128 << 10
	echoBytes    = 64
)

// calSource is the fixed input of a compute unit: calValues numbers
// with three decimals, like a discharge series.
var calSource = func() []float64 {
	v := make([]float64, calValues)
	x := uint64(88172645463325252)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = float64(x%1_000_000) / 1000
	}
	return v
}()

// calibrator measures how fast the host runs right now with fixed work
// that uses nothing of the program. A shared host's speed drifts by tens
// of percent within a minute; dividing a slice's rates by the speed
// measured around it takes that drift out. The work has two halves,
// because the workloads spend their time differently: model-widget
// mostly computes and copies, live-ingest mostly waits for loopback
// wake-ups. The compute half formats calValues time/value pairs the way
// a Flot encoder does and copies a buffer larger than the caches, on
// every CPU. The echo half sends 64-byte messages to an echo goroutine
// over loopback TCP, one at a time. Compute buffers are mapped outside
// the Go heap and the echo pair is opened once, so bursts allocate
// nothing, add nothing to peak_heap_mb and start no collection.
type calibrator struct {
	mem    []byte
	procs  int
	ln     net.Listener
	conn   net.Conn // the sending end of the echo pair
	msg    []byte
	echoed chan struct{} // closed when the echo goroutine returns
	err    error         // the first echo failure
}

// newCalibrator maps the buffers of procs concurrent compute workers
// and opens the echo pair.
func newCalibrator(procs int) (*calibrator, error) {
	per := calFmtBytes + 2*calCopyBytes
	mem, err := syscall.Mmap(-1, 0, per*procs, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping calibration buffers: %w", err)
	}
	c := &calibrator{mem: mem, procs: procs, msg: make([]byte, echoBytes), echoed: make(chan struct{})}
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = syscall.Munmap(mem)
		return nil, fmt.Errorf("listening for the echo pair: %w", err)
	}
	go c.echo()
	if c.conn, err = net.Dial("tcp", c.ln.Addr().String()); err != nil {
		c.close()
		return nil, fmt.Errorf("dialling the echo pair: %w", err)
	}
	return c, nil
}

// echo accepts one connection and sends every message back.
func (c *calibrator) echo() {
	defer close(c.echoed)
	conn, err := c.ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	buf := make([]byte, echoBytes)
	for {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

// close ends the echo pair, waits for the echo goroutine and unmaps the
// compute buffers.
func (c *calibrator) close() {
	_ = c.ln.Close()
	if c.conn != nil {
		_ = c.conn.Close()
	}
	<-c.echoed
	_ = syscall.Munmap(c.mem)
}

// speed runs one burst and returns the host's speed relative to the
// reference host: the geometric mean of the compute rate and the round
// trip rate, each over its reference value.
func (c *calibrator) speed() float64 {
	return math.Sqrt(c.compute() / refCompute * c.roundTrips() / refRoundTrips)
}

// compute runs compute units on every CPU for computeBurst and returns
// the units completed per second per CPU.
func (c *calibrator) compute() float64 {
	per := calFmtBytes + 2*calCopyBytes
	units := make([]int, c.procs)
	start := time.Now()
	end := start.Add(computeBurst)
	var wg sync.WaitGroup
	for p := 0; p < c.procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			m := c.mem[p*per : (p+1)*per]
			buf := m[:0:calFmtBytes]
			src, dst := m[calFmtBytes:calFmtBytes+calCopyBytes], m[calFmtBytes+calCopyBytes:]
			n := 0
			for time.Now().Before(end) {
				buf = buf[:0]
				for i, v := range calSource {
					buf = append(buf, '[')
					buf = strconv.AppendInt(buf, int64(i)*3_600_000, 10)
					buf = append(buf, ',')
					buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
					buf = append(buf, ']', ',')
				}
				copy(dst, src)
				src[len(buf)] = buf[len(buf)/2]
				n++
			}
			units[p] = n
		}(p)
	}
	wg.Wait()
	total := 0
	for _, u := range units {
		total += u
	}
	return float64(total) / time.Since(start).Seconds() / float64(c.procs)
}

// roundTrips sends messages through the echo pair for echoBurst and
// returns the round trips completed per second. A failure is kept in
// c.err and reads as the reference rate, so the run still ends.
func (c *calibrator) roundTrips() float64 {
	start := time.Now()
	end := start.Add(echoBurst)
	n := 0
	for time.Now().Before(end) {
		if _, err := c.conn.Write(c.msg); err != nil {
			c.err = errors.Join(c.err, fmt.Errorf("echo write: %w", err))
			return refRoundTrips
		}
		if _, err := io.ReadFull(c.conn, c.msg); err != nil {
			c.err = errors.Join(c.err, fmt.Errorf("echo read: %w", err))
			return refRoundTrips
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}
