// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time, checks every output, and prints each metric by
// name and unit, ending with one JSON line:
//
//	perfbench -workload kernels|bveq|daemon -seed N -seconds S -trace 0|1
//	          [-xpdld path] [-out dir]
//
// -trace 0 reports the end-to-end metrics of catalog.go, -trace 1 the
// per-layer ones, taken from spans the benchmark records around its
// calls into each layer (written to <out>/trace-<workload>-<seed>.json).
// The daemon workload drives a real xpdld binary given by -xpdld.
// run.sh builds both binaries from the checkout and runs this.
//
// The exit status is 1 when any output check fails (the JSON line is
// still printed, with "correct": false) or when the run cannot be
// made at all (no JSON line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// opts are the run parameters every workload receives.
type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	xpdld   string // daemon binary
	out     string // scratch directory for state and traces
}

// outcome is what a workload measured.
type outcome struct {
	ops    tally
	e2e    map[string]float64
	layer  map[string]float64
	info   []string // further named figures, printed for people only
	tracer *Tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// infof adds a human-readable line.
func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

var workloadFns = map[string]func(opts) (*outcome, error){
	"kernels": runKernels,
	"bveq":    runBveq,
	"daemon":  runDaemon,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "kernels|bveq|daemon")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	xpdld := flag.String("xpdld", "", "xpdld binary (daemon workload)")
	out := flag.String("out", ".bench_build/run", "directory for daemon state and span files")
	writePins := flag.Bool("write-pins", false, "recompute pins.json from the program and print it")
	flag.Parse()

	if *writePins {
		if err := printPins(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloadFns[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload kernels|bveq|daemon -seed N -seconds S -trace 0|1")
		return 2
	}
	dir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, xpdld: *xpdld, out: dir}

	res, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.trace {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := res.tracer.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Printf("spans: %s (%d)\n", path, len(res.tracer.Spans()))
	}

	defs, values := endToEnd, res.e2e
	if o.trace {
		defs, values = perLayer, res.layer
	}
	final := result{Attempted: res.ops.attempted, Failed: res.ops.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			return 1
		}
		final.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	final.Correct = res.ops.failed == 0 && res.ops.attempted > 0

	fmt.Printf("workload %s seed %d trace %d: %d attempted, %d failed, fail_ratio %.4g\n",
		*workload, *seed, *trace, res.ops.attempted, res.ops.failed, res.ops.failRatio())
	printTable("end-to-end", endToEnd, res.e2e)
	if o.trace {
		printTable("per-layer", perLayer, res.layer)
	}
	for _, line := range res.info {
		fmt.Println("  " + line)
	}
	for _, r := range res.ops.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", r)
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

// printTable prints the measured metrics of defs, one per line.
func printTable(title string, defs []metricDef, values map[string]float64) {
	fmt.Println(title + ":")
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			fmt.Printf("  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// segments is how many parts a run is split into. Each part measures
// the host, repeats set-up and then measures the workload, so set-up
// samples and measurements spread over the whole run.
const segments = 5

// The host's speed changes by up to 3x over minutes. So that runs made
// at different times compare, every end-to-end time is scaled to a
// reference host, on which the probe below takes probeRefMS: times are
// multiplied, and rates divided, by probeRefMS over the probe time
// measured at the start of their segment. The probe is fixed Go code
// that does not touch the program, so a change to the program moves the
// scaled figures exactly as it moves the raw ones.
const (
	probeRefMS = 1.0
	probeIters = 1_000_000 // about probeRefMS on a 2.1 GHz x86-64 core
	probeReps  = 15
)

var probeSink uint64

// probe times a fixed, allocation-free chain of dependent multiplies.
func probe() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < probeIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	probeSink += x
	return ms(time.Since(start))
}

// segmentResult is what segmented measured.
type segmentResult struct {
	setupS  float64   // median set-up time, scaled
	rates   []float64 // work per second of each segment, scaled
	probeMS []float64 // median probe time of each segment
}

// segmented runs, segments times over: the probe, setup reps times,
// and measure for an equal share of total. measure gets the segment's
// scale (the factor for its times) and returns the work it did.
func segmented(total time.Duration, reps int, setup func() error, measure func(deadline time.Time, scale float64) (float64, error)) (segmentResult, error) {
	var res segmentResult
	var setups []float64
	for seg := 0; seg < segments; seg++ {
		var probes []float64
		for i := 0; i < probeReps; i++ {
			probes = append(probes, probe())
		}
		p := median(probes)
		res.probeMS = append(res.probeMS, p)
		scale := probeRefMS / p
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := setup(); err != nil {
				return res, err
			}
			setups = append(setups, time.Since(start).Seconds()*scale)
		}
		start := time.Now()
		work, err := measure(start.Add(total/segments), scale)
		if err != nil {
			return res, err
		}
		res.rates = append(res.rates, work/time.Since(start).Seconds()/scale)
	}
	res.setupS = median(setups)
	return res, nil
}

// report fills the scaled end-to-end metrics every workload shares and
// says what the host did.
func (o *outcome) report(seg segmentResult, scaled, raw []float64) error {
	o.e2e["setup_s"] = seg.setupS
	if err := tailMS(o.e2e, "op_ms_p50", scaled, 0.5); err != nil {
		return err
	}
	if err := tailMS(o.e2e, "op_ms_p90", scaled, 0.9); err != nil {
		return err
	}
	o.e2e["work_per_s"] = median(seg.rates)
	o.layer["host.probe_ms"] = median(seg.probeMS)
	o.infof("host probe %.4g ms by segment %.4g (reference %g ms)", median(seg.probeMS), seg.probeMS, probeRefMS)
	o.infof("work_per_s by segment %.6g", seg.rates)
	o.infof("unscaled op_ms_p50 %.4g (%d ops)", median(raw), len(raw))
	return nil
}

// tailMS fills name with percentile p of samples (in ms), failing when
// too few samples support it.
func tailMS(dst map[string]float64, name string, samples []float64, p float64) error {
	v, err := percentile(samples, p)
	if err != nil {
		return fmt.Errorf("%s: %w (lengthen -seconds)", name, err)
	}
	dst[name] = v
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fill sets every listed metric that is still missing to 0: the
// workload never called that layer.
func fill(dst map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if _, ok := dst[d.Name]; !ok {
			dst[d.Name] = 0
		}
	}
}

// shortErr trims an error message for a failure reason.
func shortErr(err error) string {
	s := err.Error()
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return strings.TrimSpace(s)
}
