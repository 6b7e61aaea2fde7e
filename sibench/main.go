// Command sibench is the repository's serving benchmark. It generates
// a seeded corpus and operation script, serves the index in-process
// with sisrv's handler (and sirouter's, where the workload names it),
// drives one closed-loop HTTP client through a fixed number of
// operations, checks every answer against the exact matcher, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	go run . --workload wh-router --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics and which layer each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: wh-router, fb-page or ingest")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: corpus, query draws and write script derive from it")
	flag.IntVar(&o.seconds, "seconds", 10, "run length; the operation count is a fixed multiple of it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || o.seconds > 600 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "sibench: --seconds must be 1..600 and --trace 0 or 1")
		os.Exit(2)
	}
	gen, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "sibench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	res, err := run(o, gen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sibench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sibench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloadNames lists the registered workloads for error messages.
func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run executes one benchmark invocation: inputs and oracle first (not
// timed), then either the measured pass (trace off) or an untraced and
// a traced pass from identical fresh deployments (trace on).
func run(o options, gen func(options) (*inputs, error)) (*result, error) {
	dir, err := os.MkdirTemp(mkdirAll(workDir), o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	probeBefore := hostProbe()
	in, err := gen(o)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	in.partition()
	meta := runMeta{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Trees:      len(in.corpus),
		Operations: len(in.ops),
		Distinct:   len(in.queries),
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !o.trace {
		var setups []float64
		var d *deployment
		for i := 0; i < setupRepeats; i++ {
			if d != nil {
				if err := d.close(); err != nil {
					return nil, err
				}
				if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup-%d", i-1))); err != nil {
					return nil, err
				}
			}
			d, err = setup(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), in, nil)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.setupS)
			meta.IndexBytes = append(meta.IndexBytes, d.bytes)
		}
		p, err := finish(d, in, nil)
		if err != nil {
			return nil, err
		}
		e2e(res, p, in, median(setups))
		meta.fill(p, in)
		res.Attempted, res.Failed = p.attempted, p.failed
		meta.Setups = setups
		if !sameInt64(meta.IndexBytes) {
			meta.Problems = append(meta.Problems, "repeated builds of one corpus differ in index bytes")
		}
	} else {
		plain, err := oneShot(filepath.Join(dir, "untraced"), in, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := oneShot(filepath.Join(dir, "traced"), in, tr)
		if err != nil {
			return nil, err
		}
		rp := traced.replay
		perLayer(res, plain, traced, tr, rp)
		meta.fill(traced, in)
		meta.Setups = []float64{plain.setup, traced.setup}
		meta.IndexBytes = []int64{plain.indexBytes, traced.indexBytes}
		if plain.exact != traced.exact {
			meta.Problems = append(meta.Problems, fmt.Sprintf("exact counters differ between two passes of one seed: %+v vs %+v", plain.exact, traced.exact))
		}
		if rp != nil && rp.mismatches > 0 {
			meta.Problems = append(meta.Problems, fmt.Sprintf("replay disagrees with the served match list on %d of %d queries", rp.mismatches, rp.queries))
		}
		if err := tr.write(filepath.Join(mkdirAll(traceDir), fmt.Sprintf("%s-seed%d.ndjson", o.workload, o.seed))); err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = traced.attempted, traced.failed
	}
	meta.HostProbeMs = []float64{probeBefore, hostProbe()}
	meta.PeakRSSMB = peakRSSMB()
	if len(meta.Problems) > 0 || meta.ProtocolErrors > 0 {
		res.Correct = false
	}
	meta.print(os.Stdout)
	return res, nil
}

// oneShot sets up a fresh deployment under dir and finishes it.
func oneShot(dir string, in *inputs, tr *tracer) (*pass, error) {
	d, err := setup(dir, in, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return finish(d, in, tr)
}

// finish runs one pass on d and (when traced) the engine replay, and
// tears d down.
func finish(d *deployment, in *inputs, tr *tracer) (*pass, error) {
	p, err := measure(d, in, tr)
	if err == nil && tr != nil && in.oracle != nil {
		p.replay, err = replayAll(d, p, in)
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	p.setup = d.setupS
	p.indexBytes = d.bytes
	return p, nil
}

// Where a run keeps its files, relative to the directory it runs in:
// index files (removed at exit) and the traced runs' spans.
const (
	workDir  = ".bench_build/work"
	traceDir = ".bench_build/traces"
)

// setupRepeats is how many times an untraced run sets the deployment
// up; setup_s is their median and the last one serves the measurement.
const setupRepeats = 3

// mkdirAll creates dir (best effort; the caller's next file operation
// reports a failure) and returns it.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// sameInt64 reports whether every element equals the first.
func sameInt64(xs []int64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
