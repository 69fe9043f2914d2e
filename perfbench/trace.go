package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tramlib/tram"
)

// span is one traced interval, recorded around a call the benchmark makes
// into a layer. Spans of one item or request share Item; Parent names the
// span whose work caused this one (0 for the root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Item   int64  `json:"item,omitempty"`
	Start  int64  `json:"start"` // UnixNano
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpansPerWorker bounds the spans one worker keeps in memory.
const maxSpansPerWorker = 1 << 14

// tracer keeps one process's spans in memory. It is used from one
// goroutine; worker processes keep per-worker slices instead and ship them
// in their reports, under ids whose high bits name the worker
// (workerSpanID), so ids from different processes never collide.
type tracer struct {
	on    bool
	base  int64
	next  int64
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, base: 1 << 40}
}

// newID reserves a span id, for a span whose children start before it ends.
func (t *tracer) newID() int64 {
	t.next++
	return t.base + t.next
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, name string, start, end int64) {
	if t.on {
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	}
}

// time runs fn inside a span named name; fn gets the span's id to parent
// the spans it records.
func (t *tracer) time(parent int64, name string, fn func(id int64)) {
	id := t.newID()
	start := nowNanos()
	fn(id)
	t.add(id, parent, name, start, nowNanos())
}

// workerSpanID numbers the n-th span a worker records; its ids sit above
// the ids a tracer hands out.
func workerSpanID(w tram.WorkerID, n int) int64 { return (int64(w)+1)<<48 + int64(n) + 1 }

// selfStat aggregates spans of one name.
type selfStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// selfTimes returns, per span name, the total duration and the self time:
// each span's duration minus the part of its interval that its children
// cover (overlapping children count once).
func selfTimes(spans []span) map[string]selfStat {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]selfStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalNS += s.dur()
		st.SelfNS += s.dur() - covered(s, kids[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// durations returns the durations of the spans named name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeTrace writes a repetition's spans and their self-time summary to
// dir/name.json.
func writeTrace(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	doc := struct {
		Self  map[string]selfStat `json:"self"`
		Spans []span              `json:"spans"`
	}{selfTimes(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
