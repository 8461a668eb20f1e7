package sim_test

import (
	"testing"

	"xpdl"
	"xpdl/internal/designs"
	"xpdl/internal/sim"
)

// BenchmarkNewMachine is the machine-build layer: sim.New for a design
// already compiled (and, after the first build, already resolved), on
// both engines — the per-point cost of a bveq sweep or a batch lane.
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
