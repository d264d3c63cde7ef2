package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in the order they were set, so the human
// lines print in a stable order beside the JSON object.
type report struct {
	order   []string
	metrics map[string]metric
	// note says how many samples the metrics rest on.
	note string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(w io.Writer) {
	fmt.Fprintln(w, r.note)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// tally counts the measured operations and the ones that failed: returned
// an error or an output that differs from the reference.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) share() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// median returns the median of xs, averaging the two middle samples of an
// even count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is the number of samples a tail percentile must have beyond it
// before it is reported: fewer, and one outlier decides the figure.
const minBeyond = 10

// percentile returns the nearest-rank p-th quantile (0 < p < 1) of xs, and
// false when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 || n-1-k < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[k], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// runtimeSample reads the Go runtime counters the benchmark reports:
// cumulative heap allocation and the CPU time split between GC and all
// work.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// runtimeDelta accumulates runtime counters over the measured operations
// only, so work done between them (checks, references) is not billed.
type runtimeDelta struct {
	runtimeSample
	ops int
}

// measure runs op between two runtime samples and adds the difference.
func (d *runtimeDelta) measure(op func()) {
	a := readRuntime()
	op()
	b := readRuntime()
	d.ops++
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocObjects += b.allocObjects - a.allocObjects
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
}

func (d *runtimeDelta) allocMBPerOp() float64 {
	return ratio(float64(d.allocBytes)/mib, float64(d.ops))
}

func (d *runtimeDelta) objectsPerOp() float64 {
	return ratio(float64(d.allocObjects), float64(d.ops))
}

func (d *runtimeDelta) gcShare() float64 { return ratio(d.gcCPU, d.totalCPU) }

// liveHeapMB returns the heap that stays reachable while build's result is
// kept alive: live bytes after a forced GC with it, minus before it.
func liveHeapMB(build func() any) float64 {
	read := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := read()
	v := build()
	after := read()
	runtime.KeepAlive(v)
	return (float64(after) - float64(before)) / mib
}
