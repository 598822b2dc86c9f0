package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one daemon request share its request id; Parent is the id of the
// enclosing span (0 at the top).
type span struct {
	ID, Parent int64
	Name       string
	Request    int64
	Start, End time.Time
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// tracer keeps spans in memory and writes them out when the benchmark
// ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, request int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: request, Start: start, End: end})
	return id
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
		}
	}
	return sum
}

// write stores the spans as JSON lines, times in µs since the tracer
// started.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"req\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
			s.ID, s.Parent, s.Name, s.Request,
			float64(s.Start.Sub(t.epoch).Nanoseconds())/1e3, float64(s.End.Sub(t.epoch).Nanoseconds())/1e3)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
