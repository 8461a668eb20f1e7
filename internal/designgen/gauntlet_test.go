package designgen

import "testing"

// TestGauntletUnperturbed: a small campaign, no chaos, all engines.
func TestGauntletUnperturbed(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		d := Generate(seed)
		prog := GenProgram(d, seed)
		if div := Gauntlet(d, prog, RunOpts{}); div != nil {
			t.Errorf("seed %d (%s): %v", seed, d.Name(), div)
		}
	}
}

// TestGauntletChaos: chaos timing must be architecturally invisible.
func TestGauntletChaos(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		d := Generate(seed)
		prog := GenProgram(d, seed)
		if div := Gauntlet(d, prog, RunOpts{ChaosSeed: seed*3 + 1}); div != nil {
			t.Errorf("seed %d (%s): %v", seed, d.Name(), div)
		}
	}
}

// TestGauntletResumeAndCosim samples the expensive layers.
func TestGauntletResumeAndCosim(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		d := Generate(seed)
		prog := GenProgram(d, seed)
		opts := RunOpts{ChaosSeed: seed + 11, SaveRestore: true, Cosim: true, Engines: []string{"vm"}}
		if div := Gauntlet(d, prog, opts); div != nil {
			t.Errorf("seed %d (%s): %v", seed, d.Name(), div)
		}
	}
}
