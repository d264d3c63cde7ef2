package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/clean"
)

// span is one timed call into a layer's public function. Spans of one
// operation share Op; Parent is the index of the enclosing span, -1 for an
// operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls is how many calls the span covers: 1 for a single call, more
	// for a replay loop timed as a whole.
	Calls int `json:"calls"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write emits them once the run is over.
// A nil tracer records nothing: the untraced runs pass nil.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent,
		Start: time.Since(t.epoch).Nanoseconds(), Calls: 1})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
}

// wrap runs fn inside a span.
func (t *tracer) wrap(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// selfTimes returns, per operation and span name, the summed self time of
// the spans: each span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[int]map[string]time.Duration)
	for i, s := range t.spans {
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]time.Duration)
		}
		out[s.Op][s.Name] += s.dur() - child[i]
	}
	return out
}

// medianSelf returns the median, over the operations that have a root span
// called root, of the summed self time of the spans called name, in ms.
func (t *tracer) medianSelf(root, name string) float64 {
	self := t.selfTimes()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == root && s.Parent < 0 {
			xs = append(xs, ms(self[s.Op][name]))
		}
	}
	return median(xs)
}

// rootDurations returns the wall times of the root spans called name, in ms.
func (t *tracer) rootDurations(name string) []float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent < 0 {
			xs = append(xs, ms(s.dur()))
		}
	}
	return xs
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// The layers a traced clean is split into, in pipeline order. Their self
// times plus the root's own account for the operation's wall time.
var cleanLayers = []string{"setup", "crepair", "erepair", "hrepair", "certify"}

// tracedClean runs one clean phase by phase through the engine's public
// API, with a span around each call: NewContext, passes of CRepair, ERepair
// and HRepair until a pass adds no fix or assert, then Finish. This is the
// loop RunContext drives, so the Result must be identical to RunContext's;
// the benchmark's tests hold it to that.
func tracedClean(tr *tracer, op int, in *instance, opts clean.Options) (res *clean.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("traced clean: %v", r)
		}
	}()
	root := tr.begin("clean", -1, op)
	defer tr.end(root)
	var e *clean.Engine
	tr.wrap("setup", root, op, func() {
		e = clean.NewContext(context.Background(), in.Data, in.Master, in.Rules, opts)
	})
	maxPasses := 1 + in.Data.Len()*in.Data.Schema.Arity()
	for pass := 0; pass < maxPasses; pass++ {
		before := len(e.Result().Fixes) + e.Result().Asserts
		tr.wrap("crepair", root, op, e.CRepair)
		tr.wrap("erepair", root, op, e.ERepair)
		tr.wrap("hrepair", root, op, e.HRepair)
		if len(e.Result().Fixes)+e.Result().Asserts == before {
			break
		}
	}
	tr.wrap("certify", root, op, func() { res = e.Finish() })
	return res, nil
}
