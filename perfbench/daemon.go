package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"xpdl/internal/xpdld"
)

const (
	// daemonClients closed-loop callers share one job list; each
	// submits its next job only once its last report has arrived.
	daemonClients = 2
	daemonWorkers = "2"
	// daemonCheckpointEvery makes each simulate and chaos job of a
	// kernel longer than fib write several checkpoints, standing in
	// for long jobs at the 50k default.
	daemonCheckpointEvery = 2000
	// defaultMaxTrace is xpdld's default max_trace.
	defaultMaxTrace = 4096
	// jobTimeout bounds one job; none should take a second.
	jobTimeout = 60 * time.Second
)

// daemonProc is a running xpdld binary and a client for it.
type daemonProc struct {
	cmd    *exec.Cmd
	client *xpdld.Client
	log    *os.File
	exited chan struct{} // closed once cmd.Wait has returned
}

// startDaemon starts xpdld on a fresh state directory and waits until
// it has written its address file.
func startDaemon(bin, dir string) (*daemonProc, error) {
	if bin == "" {
		return nil, errors.New("daemon workload needs -xpdld")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", dir, "-workers", daemonWorkers)
	cmd.Stdout, cmd.Stderr = log, log
	// Take the daemon down with the benchmark if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start xpdld: %w", err)
	}
	d := &daemonProc{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		b, err := os.ReadFile(filepath.Join(dir, "xpdld.addr"))
		if addr := strings.TrimSpace(string(b)); err == nil && addr != "" {
			d.client = xpdld.NewClient("http://" + addr)
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("xpdld wrote no address file within 20s")
		}
		select {
		case <-d.exited:
			log.Close()
			return nil, fmt.Errorf("xpdld exited during start-up (see %s.log)", dir)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts the daemon down (SIGTERM, then SIGKILL after 15s), waits
// for it to exit and returns its peak resident set in MB.
func (d *daemonProc) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// warmSpecs is one job of each kind, run during set-up so the compile
// cache and the store's directories are warm before timing.
func warmSpecs() []xpdld.Spec {
	return []xpdld.Spec{
		{Kind: xpdld.KindCompile, Design: "all"},
		{Kind: xpdld.KindSimulate, Workload: "fib", CheckpointEvery: daemonCheckpointEvery},
		{Kind: xpdld.KindChaos, Workload: "fib", Seed: 1, CheckpointEvery: daemonCheckpointEvery},
		{Kind: xpdld.KindCosim, Workload: "fib"},
		{Kind: xpdld.KindBveq, Design: "base"},
	}
}

// jobBlock is one seeded block of the job list. Its make-up is fixed —
// every kernel simulated once, three chaos runs, one cosim run, two
// compiles and one bveq sweep — so the cost of a block hardly depends
// on the seed; the seed picks the chaos kernels and fault seeds, the
// compiled and verified variants, the cosim chaos seed and the order.
func jobBlock(rng *rand.Rand) []xpdld.Spec {
	var b []xpdld.Spec
	for _, k := range kernelNames {
		b = append(b, xpdld.Spec{Kind: xpdld.KindSimulate, Workload: k, CheckpointEvery: daemonCheckpointEvery})
	}
	chaosKernels := []string{"aes", "gemm", "sort", "memcpy", "spmv"}
	for i := 0; i < 3; i++ {
		b = append(b, xpdld.Spec{Kind: xpdld.KindChaos, Workload: chaosKernels[rng.Intn(len(chaosKernels))],
			Seed: uint64(1 + rng.Intn(64)), CheckpointEvery: daemonCheckpointEvery})
	}
	b = append(b, xpdld.Spec{Kind: xpdld.KindCosim, Workload: "fib", Seed: uint64(rng.Intn(8))})
	variants := []string{"base", "fatal", "trap", "csr", "all"}
	for i := 0; i < 2; i++ {
		b = append(b, xpdld.Spec{Kind: xpdld.KindCompile, Design: variants[rng.Intn(len(variants))]})
	}
	small := []string{"base", "fatal", "csr"}
	b = append(b, xpdld.Spec{Kind: xpdld.KindBveq, Design: small[rng.Intn(len(small))]})
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// jobList hands out the seeded job list to the clients, block by
// block, until the deadline.
type jobList struct {
	mu       sync.Mutex
	rng      *rand.Rand
	pending  []xpdld.Spec
	next     int
	deadline time.Time
}

// take returns the next job and its 1-based position, or false once
// the deadline has passed.
func (l *jobList) take() (xpdld.Spec, int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if time.Now().After(l.deadline) {
		return xpdld.Spec{}, 0, false
	}
	if len(l.pending) == 0 {
		l.pending = jobBlock(l.rng)
	}
	sp := l.pending[0]
	l.pending = l.pending[1:]
	l.next++
	return sp, l.next, true
}

// references holds the first report of every spec; reports are pure
// functions of the spec, so every later one must match it byte for
// byte.
type references struct {
	mu    sync.Mutex
	first map[string][]byte
}

func (r *references) check(sp xpdld.Spec, report []byte) string {
	key, _ := json.Marshal(sp)
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.first[string(key)]
	if !ok {
		r.first[string(key)] = report
		return ""
	}
	if !bytes.Equal(ref, report) {
		return fmt.Sprintf("%s: report differs from the first report of the same spec", key)
	}
	return ""
}

// jobRun is what one job produced.
type jobRun struct {
	kind                  string
	latency, submit       time.Duration
	queue, run, reportDur time.Duration
	ran, shed             bool
}

// runJob submits one job, follows its event stream to the end, fetches
// the report and checks it. A non-empty reason means the job failed.
func runJob(c *xpdld.Client, tr *Tracer, op int, sp xpdld.Spec, refs *references) (jobRun, string) {
	r := jobRun{kind: sp.Kind}
	start := time.Now()
	root := tr.Begin(op, 0, "job")
	defer tr.End(root)

	id := tr.Begin(op, root, "xpdld.submit")
	st, err := c.Submit(sp)
	tr.End(id)
	submitted := time.Now()
	r.submit = submitted.Sub(start)
	if err != nil {
		r.shed = strings.Contains(err.Error(), "HTTP 429") || strings.Contains(err.Error(), "HTTP 503")
		return r, "submit: " + shortErr(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var running time.Time
	final, err := c.Events(ctx, st.ID, func(s xpdld.Status) bool {
		if s.State == xpdld.StateRunning && running.IsZero() {
			running = time.Now()
		}
		return true
	})
	if err == nil && !final.State.Terminal() {
		final, err = c.Wait(ctx, st.ID) // the stream ended early
	}
	ended := time.Now()
	if err != nil {
		return r, st.ID + ": events: " + shortErr(err)
	}
	if running.IsZero() { // already terminal when the stream opened
		running = ended
	} else {
		r.ran = true
	}
	r.queue, r.run = running.Sub(submitted), ended.Sub(running)
	tr.Add(op, root, "xpdld.queue", submitted, running)
	tr.Add(op, root, "xpdld.run", running, ended)
	if final.State != xpdld.StateDone {
		detail := ""
		if final.Error != nil {
			detail = ": " + final.Error.Error()
		}
		return r, fmt.Sprintf("%s %s job %s%s", st.ID, sp.Kind, final.State, detail)
	}

	id = tr.Begin(op, root, "xpdld.report")
	reportStart := time.Now()
	report, err := c.Report(st.ID)
	r.reportDur = time.Since(reportStart)
	tr.End(id)
	r.latency = time.Since(start)
	if err != nil {
		return r, st.ID + ": report: " + shortErr(err)
	}
	if reason := checkReport(sp, report); reason != "" {
		return r, st.ID + ": " + reason
	}
	return r, refs.check(sp, report)
}

// checkReport checks what a report says about its own run: golden
// agreement, the pinned kernel statistics (cycle counts do not depend
// on the engine), and a verified bveq sweep of the pinned size.
func checkReport(sp xpdld.Spec, b []byte) string {
	var rep xpdld.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return "report: " + err.Error()
	}
	switch sp.Kind {
	case xpdld.KindCompile:
		if rep.Pipes == 0 {
			return "compile report has no pipelines"
		}
	case xpdld.KindSimulate:
		if !rep.GoldenOK {
			return "simulate report without golden agreement"
		}
		// A report's retired field counts the retained retirement
		// trace, which max_trace (default 4096) caps.
		want := pins.Kernels[sp.Workload]
		wantRetired := min(want.Retired, defaultMaxTrace)
		if rep.Cycles != want.Cycles || rep.Retired != wantRetired {
			return fmt.Sprintf("%s: %d cycles, %d retired; pinned %d, %d",
				sp.Workload, rep.Cycles, rep.Retired, want.Cycles, wantRetired)
		}
	case xpdld.KindChaos, xpdld.KindCosim:
		if !rep.GoldenOK {
			return sp.Kind + " report without golden agreement"
		}
	case xpdld.KindBveq:
		var br struct {
			Points   int  `json:"points"`
			Verified bool `json:"verified"`
		}
		if err := json.Unmarshal(rep.Bveq, &br); err != nil {
			return "bveq report: " + err.Error()
		}
		if !br.Verified || br.Points != pins.Variants[sp.Design].Points {
			return fmt.Sprintf("bveq %s: verified %v with %d points; pinned %d",
				sp.Design, br.Verified, br.Points, pins.Variants[sp.Design].Points)
		}
	}
	return ""
}

// scrape reads the daemon's /metrics counters.
func scrape(c *xpdld.Client) (map[string]float64, error) {
	text, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// runDaemon is the service path: a live xpdld with two workers and a
// closed loop of two clients, each behaving like `xpdlctl submit -wait`
// followed by `xpdlctl report`. One op is one job, from submit to the
// report's bytes.
func runDaemon(o opts) (*outcome, error) {
	res := newOutcome()
	var tracer *Tracer
	if o.trace {
		tracer = newTracer()
	}
	res.tracer = tracer
	refs := &references{first: map[string][]byte{}}
	list := &jobList{rng: rand.New(rand.NewSource(int64(o.seed)))}
	var d *daemonProc
	var mu sync.Mutex
	var runs []jobRun
	var latencies, tracedJobs, plainJobs, rssMB []float64
	deltas := map[string]float64{}

	// Each segment starts a fresh daemon, warms it up (the set-up),
	// drives it until the deadline and stops it.
	seg, err := segmented(o.seconds, 1, func() error {
		var err error
		d, err = startDaemon(o.xpdld, filepath.Join(o.out, "xpdld-state"))
		if err != nil {
			return err
		}
		for i, sp := range warmSpecs() {
			if _, reason := runJob(d.client, nil, i, sp, refs); reason != "" {
				d.stop()
				return errors.New("warm-up job: " + reason)
			}
		}
		return nil
	}, func(deadline time.Time, scale float64) (float64, error) {
		defer func() { rssMB = append(rssMB, d.stop()) }()
		before, err := scrape(d.client)
		if err != nil {
			return 0, err
		}
		done := len(runs)
		list.deadline = deadline
		var wg sync.WaitGroup
		for i := 0; i < daemonClients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					sp, op, ok := list.take()
					if !ok {
						return
					}
					var tr *Tracer
					if op%2 == 1 {
						tr = tracer
					}
					r, reason := runJob(d.client, tr, op, sp, refs)
					mu.Lock()
					res.ops.record(reason)
					if reason == "" {
						runs = append(runs, r)
						latencies = append(latencies, ms(r.latency)*scale)
						if tr != nil {
							tracedJobs = append(tracedJobs, ms(r.latency))
						} else {
							plainJobs = append(plainJobs, ms(r.latency))
						}
					}
					if r.shed {
						res.layer["xpdld.shed_total"]++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		after, err := scrape(d.client)
		if err != nil {
			return 0, err
		}
		for name, v := range after {
			deltas[name] += v - before[name]
		}
		return float64(len(runs) - done), nil
	})
	if err != nil {
		return nil, err
	}
	var raw []float64
	for _, r := range runs {
		raw = append(raw, ms(r.latency))
	}
	if err := res.report(seg, latencies, raw); err != nil {
		return nil, err
	}
	res.e2e["rss_mb"] = median(rssMB)
	res.layer["runtime.peak_rss_mb"] = slices.Max(rssMB)
	res.infof("jobs_per_s %.6g (work_per_s); job_ms_p50 %.4g, job_ms_p90 %.4g (op_ms_*); %d jobs",
		res.e2e["work_per_s"], res.e2e["op_ms_p50"], res.e2e["op_ms_p90"], len(runs))

	if o.trace {
		l := res.layer
		var submit, queue, report []float64
		perKind := map[string][]float64{}
		for _, r := range runs {
			submit = append(submit, ms(r.submit))
			queue = append(queue, ms(r.queue))
			report = append(report, ms(r.reportDur))
			if r.ran {
				perKind[r.kind] = append(perKind[r.kind], ms(r.run))
			}
		}
		if err := tailMS(l, "xpdld.submit_ms_p90", submit, 0.9); err != nil {
			return nil, err
		}
		if err := tailMS(l, "xpdld.queue_ms_p90", queue, 0.9); err != nil {
			return nil, err
		}
		l["xpdld.submit_ms_p50"] = median(submit)
		l["xpdld.queue_ms_p50"] = median(queue)
		l["xpdld.report_ms_p50"] = median(report)
		for _, k := range jobKinds {
			l["xpdld.run_ms_p50."+k] = median(perKind[k])
		}
		l["xpdld.checkpoints_per_job"] = ratio(deltas["xpdld_checkpoints_written_total"], float64(len(runs)))
		hits, misses := deltas["xpdld_compile_cache_hits_total"], deltas["xpdld_compile_cache_misses_total"]
		l["xpdld.cache_hit_ratio"] = ratio(hits, hits+misses)
		traceSummary(res, byLayer(tracer.Spans()), "job", tracedJobs, plainJobs)
		fill(l, perLayer)
	}
	return res, nil
}
