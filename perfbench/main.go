// Command perfbench is the repository's benchmark. It generates one named
// workload from a seed, drives it through the public API of internal/clean,
// checks every output, and prints the workload's metrics: end-to-end ones
// with tracing off, per-layer ones in a separate traced run. The last line
// of its standard output is one JSON object:
//
//	{"correct": true, "attempted": 13, "failed": 0, "metrics": {"setup_s": {"value": 0.11, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload hosp-50k --seed 1 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hosp-50k, hosp-50k-eq or stream-2k")
	seed := fs.Int64("seed", 1, "seed the workload is generated from")
	seconds := fs.Float64("seconds", 20, "how long the measured loop runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	rev := fs.String("rev", "unknown", "source revision, printed beside the metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	in, err := load(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	share := 0.0
	if cl, _, ok := simClause(in.Rules); ok {
		share = distinctShare(in.Data, cl.DataAttr)
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		w.name, *seed, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *rev)
	fmt.Fprintln(stdout, in.describe(share))

	budget := time.Duration(*seconds * float64(time.Second))
	var t tally
	var tr *tracer
	var rep *report
	switch {
	case *traced == 1:
		tr = newTracer()
		if w.stream {
			rep, err = streamTraced(in, budget, tr, &t)
		} else {
			rep, err = batchTraced(in, budget, tr, &t)
		}
	case w.stream:
		rep, err = streamEndToEnd(in, budget, &t)
	default:
		rep, err = batchEndToEnd(in, budget, &t)
	}
	if err == nil && tr != nil {
		err = writeTrace(tr, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "operations: %d attempted, %d failed, failed_share=%g\n", t.attempted, t.failed, t.share())
	if t.firstErr != nil {
		fmt.Fprintln(stdout, "first failure:", t.firstErr)
	}
	rep.print(stdout)
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: rep.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if t.failed > 0 {
		return 1
	}
	return 0
}

// writeTrace writes the traced run's spans as JSON lines under traceDir.
func writeTrace(tr *tracer, file string) (err error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, file))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return tr.write(f)
}
