package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"evop/internal/ws"
)

// liveWatch holds the /ws/live subscriber sockets of a run and matches
// every frame they receive to the InsertObservation that produced it,
// by sensor and sampling time.
type liveWatch struct {
	conns []*ws.Conn
	wg    sync.WaitGroup
	// latencies keeps each frame's delivery latency (per-layer runs
	// only), so end-to-end runs hold no per-frame memory.
	latencies bool

	mu      sync.Mutex
	pending map[string]*pendingObs
	// received counts matched frames per window; latency holds each
	// frame's insert-send to frame-receipt delay per window.
	received map[int]int
	latency  map[int][]time.Duration
	// stray counts frames matching no insert. The simulated clock is
	// frozen while requests run, so sensors never sample on their own
	// and every frame must come from a generated insert.
	stray int
}

type pendingObs struct {
	phase     int
	sent      time.Time
	remaining int
}

// startLive opens n subscriber sockets on the catchments' live topics.
func startLive(base string, catchments []string, n int, latencies bool) (*liveWatch, error) {
	topics := make([]string, len(catchments))
	for i, c := range catchments {
		topics[i] = "catchment/" + c
	}
	url := "ws://" + strings.TrimPrefix(base, "http://") + "/ws/live?topics=" + strings.Join(topics, ",")
	l := &liveWatch{
		latencies: latencies,
		pending:   make(map[string]*pendingObs),
		received:  make(map[int]int),
		latency:   make(map[int][]time.Duration),
	}
	for i := 0; i < n; i++ {
		conn, err := ws.Dial(url)
		if err != nil {
			l.close()
			return nil, fmt.Errorf("subscribing to /ws/live: %w", err)
		}
		l.conns = append(l.conns, conn)
		l.wg.Add(1)
		go l.read(conn)
	}
	return l, nil
}

func obsKey(sensor string, at time.Time) string {
	return sensor + "|" + strconv.FormatInt(at.UnixNano(), 10)
}

// expect registers an insert about to be sent in window phase.
func (l *liveWatch) expect(req *request, phase int, sent time.Time) {
	l.mu.Lock()
	l.pending[obsKey(req.sensor, req.at)] = &pendingObs{phase: phase, sent: sent, remaining: len(l.conns)}
	l.mu.Unlock()
}

// read consumes one socket's frames until it closes.
func (l *liveWatch) read(conn *ws.Conn) {
	defer l.wg.Done()
	var frame struct {
		SensorID string    `json:"sensorId"`
		Time     time.Time `json:"time"`
	}
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		now := time.Now()
		if err := json.Unmarshal(msg.Payload, &frame); err != nil {
			l.mu.Lock()
			l.stray++
			l.mu.Unlock()
			continue
		}
		key := obsKey(frame.SensorID, frame.Time)
		l.mu.Lock()
		p, ok := l.pending[key]
		if !ok {
			l.stray++
		} else {
			l.received[p.phase]++
			if l.latencies {
				l.latency[p.phase] = append(l.latency[p.phase], now.Sub(p.sent))
			}
			if p.remaining--; p.remaining == 0 {
				delete(l.pending, key)
			}
		}
		l.mu.Unlock()
	}
}

// await waits until window phase has received want frames, or gives up
// after timeout; it returns the frames received.
func (l *liveWatch) await(phase, want int, timeout time.Duration) int {
	stop := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		got := l.received[phase]
		l.mu.Unlock()
		if got >= want || time.Now().After(stop) {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// take returns window phase's delivery latencies and the stray frames
// seen so far.
func (l *liveWatch) take(phase int) ([]time.Duration, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latency[phase], l.stray
}

// close ends every socket and waits for the readers to return.
func (l *liveWatch) close() {
	for _, c := range l.conns {
		// Close tears the transport down even when the close frame
		// cannot be sent, so its error changes nothing here.
		_ = c.Close(ws.CloseNormal, "benchmark done")
	}
	l.wg.Wait()
}
