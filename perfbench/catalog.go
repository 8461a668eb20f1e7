package main

// metricDef names one metric the benchmark reports.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// kernelNames are the nine workloads.All() kernels, in report order.
var kernelNames = []string{"aes", "gemm", "sort", "crc", "fib", "memcpy", "spmv", "stencil", "histogram"}

// jobKinds are the five xpdld job kinds.
var jobKinds = []string{"compile", "simulate", "chaos", "cosim", "bveq"}

// endToEnd is what every workload prints with -trace 0. One "op" is a
// kernel run (kernels), a design verified (bveq) or a job from submit
// to report bytes (daemon); one unit of "work" is a simulated cycle, a
// verified enumeration point or a finished job. Times and rates are
// scaled to the reference host (see probeRefMS).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"rss_mb", "MB", "lower"},
}

// perLayer is what every workload prints with -trace 1. A layer the
// workload never calls reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_frac", "frac", "lower"},
		{"trace.glue_frac", "frac", "lower"},
		{"host.probe_ms", "ms", "lower"},
		{"runtime.peak_rss_mb", "MB", "lower"},
	}
	for _, k := range kernelNames {
		defs = append(defs, metricDef{"sim.us_per_cycle." + k, "us", "lower"})
	}
	defs = append(defs,
		metricDef{"sim.cycles", "count", "lower"},
		metricDef{"sim.retired", "count", "higher"},
		metricDef{"sim.cpi", "cycle/insn", "lower"},
		metricDef{"sim.firings_per_cycle", "1/cycle", "lower"},
		metricDef{"runtime.alloc_bytes_per_cycle", "B", "lower"},
		metricDef{"runtime.mallocs_per_cycle", "count", "lower"},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower"},
		metricDef{"xpdl.compile_ms_p50", "ms", "lower"},
		metricDef{"sim.new_ms_p50", "ms", "lower"},
		metricDef{"golden.run_ms_p50", "ms", "lower"},

		metricDef{"bveq.target_ms_p50", "ms", "lower"},
		metricDef{"bveq.build_us_p50", "us", "lower"},
		metricDef{"bveq.build_share", "frac", "lower"},
		metricDef{"bveq.check_us_p50", "us", "lower"},
		metricDef{"bveq.check_share", "frac", "lower"},
		metricDef{"bveq.step_share", "frac", "lower"},
		metricDef{"bveq.builds_per_point", "ratio", "lower"},
		metricDef{"runtime.alloc_bytes_per_point", "B", "lower"},
		metricDef{"bveq.points", "count", "higher"},
		metricDef{"bveq.spot_checks", "count", "higher"},

		metricDef{"xpdld.submit_ms_p50", "ms", "lower"},
		metricDef{"xpdld.submit_ms_p90", "ms", "lower"},
		metricDef{"xpdld.queue_ms_p50", "ms", "lower"},
		metricDef{"xpdld.queue_ms_p90", "ms", "lower"},
	)
	for _, k := range jobKinds {
		defs = append(defs, metricDef{"xpdld.run_ms_p50." + k, "ms", "lower"})
	}
	return append(defs,
		metricDef{"xpdld.report_ms_p50", "ms", "lower"},
		metricDef{"xpdld.checkpoints_per_job", "count", "lower"},
		metricDef{"xpdld.cache_hit_ratio", "frac", "higher"},
		metricDef{"xpdld.shed_total", "count", "lower"},
	)
}()
