// Chaos differential suite: adversarial-timing metamorphic testing of
// precise exceptions. Every fault the injector produces (spurious stage
// stalls, extern latency jitter, entry-queue backpressure, masked
// interrupt storms) is timing-only, so a perturbed run must retire the
// same architectural instruction stream and end in the same
// architectural state as the unperturbed golden run — only cycle
// numbers and issue ids may differ. Any divergence means timing can
// leak into architectural state, which is precisely the bug class the
// paper's sequential specifications exclude.
//
// Fault decisions are pure functions of (seed, cycle, coordinate), and
// the two executors are cycle-identical, so the same seed perturbs the
// compiled and interpreted machines identically: for seeds run on both,
// the full cycle-exact machine comparison must also hold.
package sim_test

import (
	"errors"
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

// archRet is the architectural content of one retirement — everything
// in a Retirement except the cycle number and issue id, which timing
// perturbation legitimately changes.
type archRet struct {
	pipe        string
	args        []uint64
	exceptional bool
	eargs       []uint64
}

// archState is a processor's complete architectural outcome.
type archState struct {
	rets []archRet
	regs [32]uint32
	dmem []uint32
	vols map[string]uint64
}

func captureArch(p *designs.Processor) archState {
	var st archState
	for _, r := range p.Retired() {
		ar := archRet{pipe: r.Pipe, exceptional: r.Exceptional}
		for _, a := range r.Args {
			ar.args = append(ar.args, a.Uint())
		}
		for _, a := range r.EArgs {
			ar.eargs = append(ar.eargs, a.Uint())
		}
		st.rets = append(st.rets, ar)
	}
	for r := uint32(1); r < 32; r++ {
		st.regs[r] = p.Reg(r)
	}
	st.dmem = make([]uint32, designs.DMemWords)
	for w := uint32(0); w < designs.DMemWords; w++ {
		st.dmem[w] = p.DMemWord(w)
	}
	st.vols = make(map[string]uint64)
	for _, vd := range p.Design.Prog.Vols {
		st.vols[vd.Name] = p.M.VolPeek(vd.Name).Uint()
	}
	return st
}

// compareArch asserts that a perturbed run's architectural outcome
// matches the golden one. skipVols names volatiles excluded from the
// comparison (mip under an interrupt storm: the storm writes it
// directly, by design).
func compareArch(t *testing.T, golden, got archState, skipVols map[string]bool) {
	t.Helper()
	if len(golden.rets) != len(got.rets) {
		t.Fatalf("retirement count: golden %d, perturbed %d", len(golden.rets), len(got.rets))
	}
	for k := range golden.rets {
		g, p := golden.rets[k], got.rets[k]
		if g.pipe != p.pipe || g.exceptional != p.exceptional ||
			len(g.args) != len(p.args) || len(g.eargs) != len(p.eargs) {
			t.Fatalf("retirement %d: golden %+v, perturbed %+v", k, g, p)
		}
		for a := range g.args {
			if g.args[a] != p.args[a] {
				t.Fatalf("retirement %d arg %d: golden %#x, perturbed %#x", k, a, g.args[a], p.args[a])
			}
		}
		for a := range g.eargs {
			if g.eargs[a] != p.eargs[a] {
				t.Fatalf("retirement %d earg %d: golden %#x, perturbed %#x", k, a, g.eargs[a], p.eargs[a])
			}
		}
	}
	for r := 1; r < 32; r++ {
		if golden.regs[r] != got.regs[r] {
			t.Errorf("x%d: golden %#x, perturbed %#x", r, golden.regs[r], got.regs[r])
		}
	}
	for w := range golden.dmem {
		if golden.dmem[w] != got.dmem[w] {
			t.Errorf("dmem[%d]: golden %#x, perturbed %#x", w, golden.dmem[w], got.dmem[w])
		}
	}
	for name, gv := range golden.vols {
		if skipVols[name] {
			continue
		}
		if pv := got.vols[name]; pv != gv {
			t.Errorf("volatile %s: golden %#x, perturbed %#x", name, gv, pv)
		}
	}
}

// chaosRun builds a variant with (optionally) a seeded injector, runs
// the workload to completion and returns the processor and cycle count.
// seed 0 means unperturbed. Storms attach only on interrupt-capable
// variants; stormed reports whether one was attached.
func chaosRun(t *testing.T, v designs.Variant, w workloads.Workload, seed uint64, engine string) (p *designs.Processor, cycles int, stormed bool) {
	t.Helper()
	cfg := sim.Config{Engine: engine}
	var inj *fault.Injector
	if seed != 0 {
		inj = fault.New(fault.Default(seed))
		cfg.Faults = inj
	}
	p, err := designs.BuildCfg(v, cfg)
	if err != nil {
		t.Fatalf("build %s: %v", v, err)
	}
	prog, err := w.Assemble()
	if err != nil {
		t.Fatalf("assemble %s: %v", w.Name, err)
	}
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Boot(); err != nil {
		t.Fatal(err)
	}
	if inj != nil && p.InterruptCapable() {
		p.AttachStorm(inj)
		stormed = true
	}
	// Injected stalls stretch the run; the budget scales with the fault
	// rates' worst observed slowdown (~3x) with generous headroom.
	budget := w.MaxSteps * 8
	if seed != 0 {
		budget *= 4
	}
	n, err := p.Run(budget)
	if err != nil {
		var dl *sim.DeadlockError
		if errors.As(err, &dl) {
			t.Fatalf("%s/%s seed %#x: injected faults deadlocked the design: %v", v, w.Name, seed, err)
		}
		t.Fatalf("%s/%s seed %#x: %v", v, w.Name, seed, err)
	}
	if p.M.InFlight() != 0 {
		t.Fatalf("%s/%s seed %#x: did not drain (%d in flight)", v, w.Name, seed, p.M.InFlight())
	}
	return p, n, stormed
}

// chaosSeeds are the per-cell fault seeds (seed 0 is reserved for the
// golden run, so it never appears here).
var chaosSeeds = []uint64{
	0xC0FFEE01, 0xC0FFEE02, 0xC0FFEE03, 0xC0FFEE04,
	0xC0FFEE05, 0xC0FFEE06, 0xC0FFEE07, 0xC0FFEE08,
}

// TestChaosDifferential runs the full variant x workload matrix: one
// unperturbed run per cell, then every chaos seed on both executors
// (the bytecode VM and the interpreter oracle), asserting architectural
// equivalence against the unperturbed run and cycle-exact equivalence
// between the two executors (same seed => identical perturbation =>
// identical machine).
func TestChaosDifferential(t *testing.T) {
	vs := designs.Variants()
	ws := workloads.All()
	seeds := chaosSeeds
	if testing.Short() {
		vs = []designs.Variant{designs.Base, designs.All}
		ws = ws[:3]
		seeds = seeds[:3]
	}
	for _, v := range vs {
		for _, w := range ws {
			t.Run(v.String()+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				gp, gn, _ := chaosRun(t, v, w, 0, "vm")
				golden := captureArch(gp)
				for _, seed := range seeds {
					vp, vn, stormed := chaosRun(t, v, w, seed, "vm")
					if vn <= gn {
						// At the default rates a perturbed run must be
						// strictly slower; equality means dead hooks.
						t.Fatalf("seed %#x ran in %d cycles, golden %d: faults not injected", seed, vn, gn)
					}
					skip := map[string]bool{}
					if stormed {
						skip["mip"] = true
					}
					compareArch(t, golden, captureArch(vp), skip)
					ip, in, _ := chaosRun(t, v, w, seed, "interp")
					compareArch(t, golden, captureArch(ip), skip)
					compareMachines(t, "vm", "interp", vp, ip, vn, in)
				}
			})
		}
	}
}
