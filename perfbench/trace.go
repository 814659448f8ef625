package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run, recorded from the
// benchmark's side of a call into a layer. Start and End are
// nanoseconds since the recorder's epoch; Parent 0 marks a root. Spans
// of one step or one job share a Trace id.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op returning id 0, so the
// measured code paths carry no branches of their own.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name, trace string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close fills it in.
func (r *recorder) open(name, trace string, parent int64) int64 {
	now := time.Now()
	return r.add(name, trace, parent, now, now)
}

func (r *recorder) close(id int64) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

func (r *recorder) all() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by the union of its direct
// children (clipped to the parent, so overlapping or overhanging
// children are counted once).
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals inside
// [lo, hi).
func covered(lo, hi int64, children []Span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// spanSummary is the per-name aggregate the traced run reports.
type spanSummary struct {
	Name   string
	Count  int
	TotalS float64 // summed duration
	SelfS  float64 // summed self time
}

func summarizeSpans(spans []Span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.TotalS += float64(s.End-s.Start) / 1e9
		a.SelfS += float64(self[s.ID]) / 1e9
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes spans as JSONL, one span per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
