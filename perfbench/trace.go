package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer of the program. Offsets are
// relative to the tracer's epoch; Parent is -1 for a root span. All
// spans of one traced pipeline share a Run identifier.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run
// ends, so recording costs two clock reads and an append.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(run, name string, parent int) int {
	return t.add(run, name, parent, time.Since(t.epoch), -1)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.epoch) }

// add records a span whose interval is already known, such as a phase
// the program timed itself.
func (t *tracer) add(run, name string, parent int, start, end time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: end})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(run, name string, parent int, fn func()) time.Duration {
	id := t.begin(run, name, parent)
	fn()
	t.end(id)
	return t.spans[id].dur()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once and a child reaching outside its parent is clipped, so
// the self times of a tree of spans always sum to the root's duration.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, p := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur := p.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// sumSelf sums the self times of the spans from root on, which must
// be one traced pass: its root span and every span opened after it.
func sumSelf(spans []span, root int) time.Duration {
	var sum time.Duration
	for _, d := range selfTimes(spans)[root:] {
		sum += d
	}
	return sum
}

// attributionGap is how far a traced pass's summed self times lie from
// clock, the pass's wall time read outside the tracer, as a share of
// clock. Self times of well-nested spans sum to the root's duration by
// construction, and bench.unattributed_s is the root's self time, so
// the gap only tests the span tree: it grows when spans overlap or run
// past their parent (such as Stats phase rows that do not fit inside
// core.run) or when the root does not cover the pass. A layer that is
// timed wrongly or left out passes; its time lands in
// bench.unattributed_s, which the run record notes when it is large.
func attributionGap(selfSum, clock time.Duration) float64 {
	return math.Abs(selfSum.Seconds()-clock.Seconds()) / clock.Seconds()
}

// selfByName sums the self times of the named spans of one run.
func selfByName(spans []span, self []time.Duration, run string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Run == run {
			out[s.Name] += self[i]
		}
	}
	return out
}

// writeSpans saves the spans as JSON.
func (t *tracer) writeSpans(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
