package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around a public entry point. Spans of one op share Op; Parent is the ID
// of the enclosing span (0 for an op's root span).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the phase began
	End    float64 `json:"end_ms"`
}

// timer is an open span.
type timer struct {
	name       string
	id, parent int64
	op         int64
	start      time.Time
}

// recorder collects one measurement phase. It is shared by the client
// goroutines of the serve workload, so every method is safe for
// concurrent use; acc and counts are written by measure once its ops have
// finished. With tracing off it keeps op latencies and outcomes only;
// with tracing on it also keeps every span in memory until the phase
// ends.
type recorder struct {
	tracing bool
	t0      time.Time
	nextID  atomic.Int64

	mu        sync.Mutex
	spans     []span    // tracing only
	lat       []float64 // ms per sampled round op
	done      int       // completed round ops
	lastDone  time.Time
	attempted int
	failed    int
	errs      []string
	acc       map[string]float64 // RNG-determined metrics of the scored set
	counts    map[string]float64 // per-layer counts the workload reports
}

func newRecorder(tracing bool) *recorder {
	return &recorder{
		tracing: tracing,
		t0:      time.Now(),
		acc:     map[string]float64{},
		counts:  map[string]float64{},
	}
}

func (r *recorder) begin(name string, parent, op int64) timer {
	return timer{name: name, id: r.nextID.Add(1), parent: parent, op: op, start: time.Now()}
}

// end closes t and returns its duration in ms.
func (r *recorder) end(t timer) float64 {
	now := time.Now()
	ms := msSince(t.start, now)
	if !r.tracing {
		return ms
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: t.id, Parent: t.parent, Op: t.op, Name: t.name,
		Start: msSince(r.t0, t.start), End: msSince(r.t0, now),
	})
	r.mu.Unlock()
	return ms
}

// attempt counts one checked operation; a non-nil err marks it failed.
func (r *recorder) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// roundDone records one completed round op, and its latency when sampled.
func (r *recorder) roundDone(ms float64, sampled bool) {
	r.mu.Lock()
	r.done++
	if sampled {
		r.lat = append(r.lat, ms)
	}
	r.lastDone = time.Now()
	r.mu.Unlock()
}

// fail records a failure that is not tied to one op, such as a
// determinism mismatch.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// roundsPerSec is completed round ops per wall second, measured up to the
// completion of the last op so that the tail of a run does not count.
func (r *recorder) roundsPerSec() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done == 0 {
		return 0
	}
	return float64(r.done) / r.lastDone.Sub(r.t0).Seconds()
}

// spanP50 is the median duration of the named span in ms (0 when the
// phase did not run it).
func (r *recorder) spanP50(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms []float64
	for _, s := range r.spans {
		if s.Name == name {
			ms = append(ms, s.End-s.Start)
		}
	}
	return median(ms)
}

func msSince(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}

// quantile is the q-quantile of xs with linear interpolation between order
// statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is x/n, or 0 when n is 0 (nothing attempted or completed; a run
// without completed ops is incorrect anyway).
func ratio(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}
