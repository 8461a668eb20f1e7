package sim_test

import (
	"testing"

	"xpdl"
	"xpdl/internal/designs"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// BenchmarkNewMachine is the machine-build layer: sim.New for a design
// already compiled (and, after the first build, already resolved), on
// both engines — the per-point cost of a bveq sweep.
func BenchmarkNewMachine(b *testing.B) {
	for _, v := range []designs.Variant{designs.All, designs.Base} {
		d, err := xpdl.Compile(designs.Source(v))
		if err != nil {
			b.Fatal(err)
		}
		for _, engine := range sim.Engines() {
			b.Run(v.String()+"/"+engine, func(b *testing.B) {
				cfg := sim.Config{Engine: engine, Externs: designs.Externs()}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := d.NewMachine(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelRun is the per-cycle layer on the paper's processor:
// the `all` variant on the vm engine running a kernel from boot to
// drain, then reading its retirement trace. Machine build is outside
// the timer (BenchmarkNewMachine measures it); cycles/s and
// firings/cycle make runs of different kernels comparable.
func BenchmarkKernelRun(b *testing.B) {
	d, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"aes", "crc"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := w.Assemble()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("all/vm/"+name, func(b *testing.B) {
			cfg := sim.Config{Engine: "vm", Externs: designs.Externs()}
			b.ReportAllocs()
			var cycles int
			var firings uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := d.NewMachine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				p := &designs.Processor{Variant: designs.All, Design: d, M: m}
				b.StartTimer()
				if err := p.Load(prog); err != nil {
					b.Fatal(err)
				}
				if err := p.Boot(); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Run(w.MaxSteps * 8); err != nil {
					b.Fatal(err)
				}
				if len(p.Retired()) == 0 {
					b.Fatal("nothing retired")
				}
				cycles += m.Cycle()
				firings += m.Firings()
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
			b.ReportMetric(float64(firings)/float64(cycles), "firings/cycle")
		})
	}
}
