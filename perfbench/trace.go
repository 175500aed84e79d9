package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"mdw/internal/obs"
)

// Span is one timed region recorded by the benchmark: its own spans around
// the calls it makes into the program, plus the program's per-request trace
// grafted below the call that produced it. Spans of one operation share
// Req. Times are nanoseconds since the tracer started.
type Span struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Req    uint64            `json:"req"`
	Name   string            `json:"name"`
	Start  int64             `json:"startNs"`
	End    int64             `json:"endNs"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until write.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	ids   uint64
	reqs  uint64
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newReq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// reserve allocates a span id ahead of the span, so that children can
// be recorded before their parent finishes.
func (t *tracer) reserve() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// add records a finished span under id (0 allocates one) and returns the
// id.
func (t *tracer) add(id, req, parent uint64, name string, start, end time.Time, labels map[string]string) uint64 {
	if id == 0 {
		id = t.reserve()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Labels: labels})
	return id
}

// graft copies one of the program's traces below parent, keeping its tree
// shape and labels. The program lists a trace's spans in the order they
// finished, children before parents, so ids are assigned first.
func (t *tracer) graft(req, parent uint64, tr obs.Trace) {
	ids := make(map[uint64]uint64, len(tr.Spans))
	for _, s := range tr.Spans {
		ids[s.ID] = t.reserve()
	}
	for _, s := range tr.Spans {
		p, ok := ids[s.Parent]
		if !ok {
			p = parent
		}
		var labels map[string]string
		if len(s.Labels) > 0 {
			labels = make(map[string]string, len(s.Labels))
			for _, l := range s.Labels {
				labels[l.Key] = l.Value
			}
		}
		t.add(ids[s.ID], req, p, s.Name, s.Start, s.Start.Add(s.Dur), labels)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover (overlapping children,
// such as parallel workers, count once).
func selfTimes(spans []Span) map[uint64]time.Duration {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerAgg sums one span name's occurrences.
type layerAgg struct {
	n          int
	total      time.Duration
	self       time.Duration
	labelSums  map[string]float64
	labelMaxes map[string]float64
}

// aggregate groups spans by name; numeric labels are summed and maxed.
func aggregate(spans []Span) map[string]*layerAgg {
	self := selfTimes(spans)
	out := map[string]*layerAgg{}
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &layerAgg{labelSums: map[string]float64{}, labelMaxes: map[string]float64{}}
			out[s.Name] = a
		}
		a.n++
		a.total += s.Dur()
		a.self += self[s.ID]
		for k, v := range s.Labels {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				a.labelSums[k] += f
				a.labelMaxes[k] = max(a.labelMaxes[k], f)
			}
		}
	}
	return out
}

// meanMs is the mean duration per occurrence in milliseconds (self time
// when self is set); 0 when the name never occurred.
func (a *layerAgg) meanMs(self bool) float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	d := a.total
	if self {
		d = a.self
	}
	return float64(d) / float64(a.n) / 1e6
}

// meanLabel is the mean of a numeric label per occurrence.
func (a *layerAgg) meanLabel(key string) float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return a.labelSums[key] / float64(a.n)
}

func (a *layerAgg) maxLabel(key string) float64 {
	if a == nil {
		return 0
	}
	return a.labelMaxes[key]
}
