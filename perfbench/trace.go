package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, as the benchmark saw it from
// outside. Times are offsets from the tracer's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed code is the same in
// both modes.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; close it with end.
type active struct {
	t *tracer
	s span
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(name string, parent int64, req string) active {
	if t == nil {
		return active{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return active{t: t, s: span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Since(t.epoch)}}
}

// id is the span's identifier, for use as a child's parent.
func (a active) id() int64 { return a.s.ID }

func (a active) end() {
	if a.t == nil {
		return
	}
	a.s.End = time.Since(a.t.epoch)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// snapshot returns the closed spans ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durations returns the durations of every closed span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the durations of every closed span with this name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, x := range t.durations(name) {
		d += x
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals. Children
// may overlap each other (concurrent calls) and are clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// byName groups spans by name with total and self time, largest self time
// first.
func byName(spans []span) []nameStat {
	self := selfTimes(spans)
	agg := make(map[string]*nameStat)
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &nameStat{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.Total += s.dur()
		a.Self += self[s.ID]
	}
	out := make([]nameStat, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Spans []span `json:"spans"`
	}{spans})
}

// writeSelfTable renders byName as a text table.
func writeSelfTable(w io.Writer, stats []nameStat) {
	fmt.Fprintf(w, "%-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range stats {
		fmt.Fprintf(w, "%-40s %8d %12.3f %12.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
