package metrics

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Family is the JSON section a series belongs to: the name segment after
// the evop_ namespace, so evop_http_request_seconds is in "http". A name
// without the namespace contributes its own first segment.
func (m Metric) Family() string {
	f := strings.TrimPrefix(m.Name, "evop_")
	if i := strings.IndexByte(f, '_'); i >= 0 {
		f = f[:i]
	}
	return f
}

// WriteJSON writes every registered series as the /metrics JSON
// document (see Snapshot.WriteJSON). Nil-receiver safe (writes {}).
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// WriteJSON writes the snapshot as the /metrics JSON document:
//
//	{"<family>": {"<series id>": <number> | {"count","sum","max","p50","p95","p99"}}}
//
// Counters and gauges are numbers; histograms are their HistogramStats.
// Families are sorted by name and series keep the snapshot's order, so
// the document is deterministic. Non-finite gauge readings encode as
// null.
func (s Snapshot) WriteJSON(w io.Writer) error {
	ms := slices.Clone(s.Metrics)
	slices.SortStableFunc(ms, func(a, b Metric) int { return cmp.Compare(a.Family(), b.Family()) })
	b := make([]byte, 0, 64*len(ms)+2)
	b = append(b, '{')
	prev := ""
	for i, m := range ms {
		if f := m.Family(); i == 0 || f != prev {
			if i > 0 {
				b = append(b, "},"...)
			}
			b = append(appendJSONString(b, f), ':', '{')
			prev = f
		} else {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, m.SeriesID()), ':')
		if m.Histogram == nil {
			b = appendJSONNumber(b, m.Value)
			continue
		}
		h, err := json.Marshal(m.Histogram)
		if err != nil {
			return err
		}
		b = append(b, h...)
	}
	if len(ms) > 0 {
		b = append(b, '}')
	}
	_, err := w.Write(append(b, '}', '\n'))
	return err
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendJSONNumber appends v in encoding/json's float notation: plain
// decimals, exponent form only for very large or small magnitudes.
func appendJSONNumber(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	return strconv.AppendFloat(b, v, format, -1, 64)
}
