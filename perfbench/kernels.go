package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/golden"
	"xpdl/internal/riscv"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// kernelSetupReps is how often each segment repeats the kernels
// set-up, assembling the nine kernels, for the setup_s median.
const kernelSetupReps = 3

// kernel is one assembled workload.
type kernel struct {
	w    workloads.Workload
	prog *asm.Program
}

// kernelRun is what one kernel run produced.
type kernelRun struct {
	name             string
	cycles, retired  int
	firings          uint64
	latency, runTime time.Duration
}

// assembleKernels assembles every workloads.All() kernel.
func assembleKernels() ([]kernel, error) {
	var ks []kernel
	for _, w := range workloads.All() {
		prog, err := w.Assemble()
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", w.Name, err)
		}
		ks = append(ks, kernel{w, prog})
	}
	return ks, nil
}

// runKernels is the paper's §4 workload: sweeps of all nine kernels on
// the `all` processor under the vm engine, each kernel compiled, built,
// booted, run and cross-checked against the golden model. One op is
// one kernel run; the seed shuffles the order within each sweep.
func runKernels(o opts) (*outcome, error) {
	res := newOutcome()
	var tracer *Tracer
	if o.trace {
		tracer = newTracer()
	}
	res.tracer = tracer
	rng := rand.New(rand.NewSource(int64(o.seed)))
	var ks []kernel
	var latencies, raw, sweepMS []float64
	var firstSweepRSS float64
	var tracedSweeps, plainSweeps []float64
	var cycles int
	sweepCycles, sweepRetired, sweepFirings := 0, 0, uint64(0)
	runUS := map[string][]float64{}
	sweep := 0

	before := readRuntime()
	seg, err := segmented(o.seconds, kernelSetupReps, func() (err error) {
		ks, err = assembleKernels()
		return err
	}, func(deadline time.Time, scale float64) (float64, error) {
		segCycles := 0
		for ; time.Now().Before(deadline); sweep++ {
			var tr *Tracer
			if sweep%2 == 1 {
				tr = tracer
			}
			sweepStart := time.Now()
			var sc, sr int
			var sf uint64
			complete := true
			for _, i := range rng.Perm(len(ks)) {
				if time.Now().After(deadline) {
					complete = false
					break
				}
				r, reason := runKernel(tr, sweep+1, ks[i])
				if reason == "" {
					reason = pins.checkKernel(r.name, r.cycles, r.retired, r.firings)
				}
				res.ops.record(reason)
				if reason != "" {
					continue
				}
				latencies = append(latencies, ms(r.latency)*scale)
				raw = append(raw, ms(r.latency))
				sc, sr, sf = sc+r.cycles, sr+r.retired, sf+r.firings
				if tr != nil {
					runUS[r.name] = append(runUS[r.name], float64(r.runTime)/float64(time.Microsecond)/float64(r.cycles))
				}
			}
			cycles += sc
			segCycles += sc
			if !complete {
				break
			}
			d := ms(time.Since(sweepStart))
			sweepMS = append(sweepMS, d)
			if tr != nil {
				tracedSweeps = append(tracedSweeps, d)
			} else {
				plainSweeps = append(plainSweeps, d)
			}
			sweepCycles, sweepRetired, sweepFirings = sc, sr, sf
			if firstSweepRSS == 0 {
				firstSweepRSS = peakRSSMB()
			}
		}
		return float64(segCycles), nil
	})
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	if err := res.report(seg, latencies, raw); err != nil {
		return nil, err
	}
	// Peak RSS after one sweep: the whole run's peak grows with every
	// compile (sim's vm program cache is never evicted), so it is the
	// per-layer runtime.peak_rss_mb instead.
	res.e2e["rss_mb"] = firstSweepRSS
	res.layer["runtime.peak_rss_mb"] = peakRSSMB()

	res.infof("sim_cycles_per_s %.6g (work_per_s); cpi %.6g over a sweep", res.e2e["work_per_s"], ratio(float64(sweepCycles), float64(sweepRetired)))
	res.infof("sweeps %d; sweep_ms_p50 %.4g; sweep tail p%g %.4g (p90 needs 100 sweeps)",
		len(sweepMS), median(sweepMS), 100*highestTail(len(sweepMS)), mustPct(sweepMS, highestTail(len(sweepMS))))

	if o.trace {
		l := res.layer
		for _, k := range kernelNames {
			l["sim.us_per_cycle."+k] = median(runUS[k])
		}
		l["sim.cycles"] = float64(sweepCycles)
		l["sim.retired"] = float64(sweepRetired)
		l["sim.cpi"] = ratio(float64(sweepCycles), float64(sweepRetired))
		l["sim.firings_per_cycle"] = ratio(float64(sweepFirings), float64(sweepCycles))
		l["runtime.alloc_bytes_per_cycle"] = ratio(after.allocBytes-before.allocBytes, float64(cycles))
		l["runtime.mallocs_per_cycle"] = ratio(after.mallocs-before.mallocs, float64(cycles))
		l["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
		layers := byLayer(tracer.Spans())
		l["xpdl.compile_ms_p50"] = medianOf(layers, "xpdl.compile")
		l["sim.new_ms_p50"] = medianOf(layers, "sim.new")
		l["golden.run_ms_p50"] = medianOf(layers, "golden.run")
		traceSummary(res, layers, "kernel", tracedSweeps, plainSweeps)
		fill(l, perLayer)
	}
	return res, nil
}

// runKernel runs one kernel end to end and checks it. A non-empty
// reason means the run failed.
func runKernel(tr *Tracer, op int, k kernel) (kernelRun, string) {
	r := kernelRun{name: k.w.Name}
	start := time.Now()
	root := tr.Begin(op, 0, "kernel")
	defer tr.End(root)

	id := tr.Begin(op, root, "xpdl.compile")
	d, err := xpdl.Compile(designs.Source(designs.All))
	tr.End(id)
	if err != nil {
		return r, "compile: " + shortErr(err)
	}
	id = tr.Begin(op, root, "sim.new")
	m, err := d.NewMachine(sim.Config{Engine: "vm", Externs: designs.Externs()})
	tr.End(id)
	if err != nil {
		return r, "sim.New: " + shortErr(err)
	}
	p := &designs.Processor{Variant: designs.All, Design: d, M: m}
	id = tr.Begin(op, root, "sim.boot")
	err = p.Load(k.prog)
	if err == nil {
		err = p.Boot()
	}
	tr.End(id)
	if err != nil {
		return r, k.w.Name + ": load/boot: " + shortErr(err)
	}
	id = tr.Begin(op, root, "sim.run")
	runStart := time.Now()
	_, err = m.Run(k.w.MaxSteps * 8)
	r.runTime = time.Since(runStart)
	tr.End(id)
	if err != nil {
		return r, k.w.Name + ": run: " + shortErr(err)
	}
	id = tr.Begin(op, root, "golden.run")
	g := golden.New(k.prog.Text, k.prog.Data, designs.DMemWords)
	err = g.Run(k.w.MaxSteps)
	tr.End(id)
	if err != nil {
		return r, k.w.Name + ": golden: " + shortErr(err)
	}
	id = tr.Begin(op, root, "bench.check")
	r.cycles, r.retired, r.firings = m.Cycle(), len(p.Retired()), m.Firings()
	reason := checkKernel(k.w.Name, p, g, r)
	tr.End(id)
	r.latency = time.Since(start)
	return r, reason
}

// checkKernel compares a finished run with the golden model: halted,
// same retired count, dmem checksum and all architectural state.
func checkKernel(name string, p *designs.Processor, g *golden.Machine, r kernelRun) string {
	switch {
	case p.M.InFlight() != 0:
		return fmt.Sprintf("%s: pipeline did not drain (%d in flight)", name, p.M.InFlight())
	case !g.Halted:
		return name + ": golden model did not halt"
	case uint64(r.retired) != g.Retired:
		return fmt.Sprintf("%s: retired %d, golden %d", name, r.retired, g.Retired)
	case p.DMemWord(0) != g.DMem[0]:
		return fmt.Sprintf("%s: checksum %#x, golden %#x", name, p.DMemWord(0), g.DMem[0])
	}
	for i := uint32(1); i < 32; i++ {
		if p.Reg(i) != g.Regs[i] {
			return fmt.Sprintf("%s: x%d = %#x, golden %#x", name, i, p.Reg(i), g.Regs[i])
		}
	}
	for i := uint32(0); i < designs.DMemWords; i++ {
		if p.DMemWord(i) != g.DMem[i] {
			return fmt.Sprintf("%s: dmem[%d] = %#x, golden %#x", name, i, p.DMemWord(i), g.DMem[i])
		}
	}
	for csr, addr := range map[string]uint32{
		"mstatus": riscv.CSRMStatus, "mie": riscv.CSRMIE, "mtvec": riscv.CSRMTVec,
		"mscratch": riscv.CSRMScratch, "mepc": riscv.CSRMEPC,
		"mcause": riscv.CSRMCause, "mtval": riscv.CSRMTVal, "mip": riscv.CSRMIP,
	} {
		if !p.HasCSR(csr) {
			continue
		}
		idx, _ := riscv.CSRIndex(addr)
		if p.CSR(csr) != g.CSR[idx] {
			return fmt.Sprintf("%s: %s = %#x, golden %#x", name, csr, p.CSR(csr), g.CSR[idx])
		}
	}
	return ""
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	allocBytes, mallocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtime.GC() // settle the CPU-class accounting
	metrics.Read(s)
	var out [4]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return runtimeSample{out[0], out[1], out[2], out[3]}
}

// medianOf is the median span duration (ms) of a layer, 0 if absent.
func medianOf(layers map[string]*layerStats, name string) float64 {
	if ls := layers[name]; ls != nil {
		return median(ls.durs)
	}
	return 0
}

// mustPct is a percentile the caller has checked is supported.
func mustPct(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// traceSummary reports the tracing overhead (mean traced op against
// mean untraced op), the share of traced op time outside every layer
// span, and the self time of each layer.
func traceSummary(res *outcome, layers map[string]*layerStats, root string, traced, plain []float64) {
	res.layer["trace.overhead_frac"] = ratio(mean(traced), mean(plain)) - 1
	rs := layers[root]
	if rs == nil || rs.total == 0 {
		res.layer["trace.glue_frac"] = 0
		return
	}
	res.layer["trace.glue_frac"] = float64(rs.self) / float64(rs.total)
	res.infof("self time by layer over %d traced ops (untraced op mean %.4g ms, traced %.4g ms):",
		len(rs.durs), mean(plain), mean(traced))
	for _, name := range sortedKeys(layers) {
		ls := layers[name]
		res.infof("  %-18s self %10.1f ms  %5.1f%%  calls %d", name, ms(ls.self),
			100*float64(ls.self)/float64(rs.total), len(ls.durs))
	}
}
