// Package cosim executes the emitted Verilog of a processor variant in
// lockstep with the pipeline simulator and diffs architectural state
// every cycle. It is the closing link in the verification chain: the
// checker proves the design obeys the sequential specification, the
// simulator demonstrates it cycle-by-cycle, the golden model pins the
// one-instruction-at-a-time (OIAT) meaning, and cosimulation proves the
// *emitted hardware* is the same machine — with zero cycle offset.
//
// The harness replays the simulator's schedule into the RTL: a
// sim.Observer records which stage nodes fired, which instructions were
// squashed and when the entry queue was popped; those events become the
// module's fire/kill/q_kill/entry_pop strobes. The RTL is therefore not
// free-running — scheduling (stalls, arbitration, fault injection) is
// the simulator's job — but every datapath computation, forwarding
// decision, exception fork, staged-write commit and CSR update is
// recomputed by the Verilog semantics and compared against the
// simulator's result at every clock edge.
package cosim

import (
	"context"
	"fmt"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/golden"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/riscv"
	"xpdl/internal/rtl"
	"xpdl/internal/sim"
	"xpdl/internal/synth"
	"xpdl/internal/val"
)

// Options configures one cosimulation run.
type Options struct {
	Variant designs.Variant
	Program *asm.Program
	// Design, when non-nil, cosimulates an arbitrary compiled design
	// instead of a named processor variant (the design-space fuzzer's
	// path). Externs supplies its extern implementations and IMem its
	// raw instruction image; Variant/Program/Firmware are ignored and
	// the golden OIAT diff (RV32-specific) is skipped.
	Design  *xpdl.Design
	Externs map[string]sim.ExternFunc
	IMem    []uint32
	// StormSchedule pulses value 1 into the StormVol volatile at the
	// listed cycles — the generic-design interrupt source (requires
	// Design). StormVol defaults to "mip" for variant runs.
	StormSchedule []int
	StormVol      string
	// MaxCycles bounds the run (default 200000).
	MaxCycles int
	// Engine selects the simulator's executor (see sim.Config.Engine;
	// empty selects the default).
	Engine string
	// ChaosSeed, when nonzero, plugs the deterministic fault injector
	// into the simulator (timing faults only — the RTL replays the
	// perturbed schedule through its strobe inputs).
	ChaosSeed uint64
	// Storm lets the chaos injector pulse interrupt lines (requires an
	// interrupt-capable variant); implies SkipGolden.
	Storm bool
	// StormPct overrides the injector's per-cycle storm probability
	// (percent). A program that leaves interrupts enabled livelocks
	// under the default 10%/cycle rate — the handler never outruns the
	// next pulse — so interrupt-enabled storm runs want 1-2%.
	StormPct int
	// InterruptAt, when positive, pulses InterruptBit once at that cycle.
	InterruptAt  int
	InterruptBit uint32
	// DMemEvery throttles the full data-memory diff to every N cycles
	// (default 64); the final-state diff always covers all of it.
	DMemEvery int
	// Firmware presets CSR volatiles before boot (the Trap variant has
	// no csrw instruction; devices initialize it from outside). Applied
	// to the simulator, the RTL and the golden reference alike.
	Firmware map[string]uint32
	// Verilog overrides the emitted module text (used by the
	// bug-seeding tests to prove the harness catches emitter defects).
	Verilog string
	// SkipGolden suppresses the final OIAT diff (set automatically for
	// storm runs, whose interrupt timing the golden model cannot replay).
	SkipGolden bool
	// Ctx, when non-nil, cancels the run at the next cycle boundary; Run
	// then returns a *CanceledError carrying a resumable checkpoint.
	Ctx context.Context
	// CheckpointEvery, when positive, calls Checkpoint with a combined
	// checkpoint every N cycles.
	CheckpointEvery int
	Checkpoint      func([]byte) error
	// Resume, when non-nil, restores a combined checkpoint taken under
	// identical Options instead of booting from reset.
	Resume []byte
}

// Result summarises a successful run.
type Result struct {
	Cycles  int
	Retired int
}

// DivergenceError reports the first cycle at which the RTL and the
// simulator disagreed about architectural state.
type DivergenceError struct {
	Cycle  int
	Signal string
	Got    uint64 // RTL value
	Want   uint64 // simulator value
	Detail string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("cosim: cycle %d: %s: rtl %#x, sim %#x (%s)",
		e.Cycle, e.Signal, e.Got, e.Want, e.Detail)
}

// recorder captures the simulator's schedule events for one cycle.
type recorder struct {
	fire, kill, qkill uint64
	pop               bool
	qmirror           []int
	err               error
}

var _ sim.Observer = (*recorder)(nil)

func (r *recorder) reset(mirror []int) {
	r.fire, r.kill, r.qkill = 0, 0, 0
	r.pop = false
	r.qmirror = append(r.qmirror[:0], mirror...)
}

func (r *recorder) StageFired(pipe string, pos int) { r.fire |= 1 << uint(pos) }

func (r *recorder) EntryPulled(pipe string) {
	r.pop = true
	if len(r.qmirror) > 0 {
		r.qmirror = r.qmirror[1:]
	}
}

func (r *recorder) InstKilled(pipe string, pos, queuePos int) {
	if pos >= 0 {
		r.kill |= 1 << uint(pos)
		return
	}
	if queuePos < 0 || queuePos >= len(r.qmirror) {
		r.err = fmt.Errorf("cosim: queue kill at position %d outside the cycle-start queue (len %d)",
			queuePos, len(r.qmirror))
		return
	}
	if orig := r.qmirror[queuePos]; orig >= 0 {
		r.qkill |= 1 << uint(orig)
	} else {
		r.err = fmt.Errorf("cosim: same-cycle push+kill of a queue entry is outside the modeled subset")
	}
	r.qmirror = append(r.qmirror[:queuePos], r.qmirror[queuePos+1:]...)
}

// RTLFuncs adapts the simulator's extern implementations to the rtl
// evaluator's calling convention. Record results come back from the
// simulator name-sorted; the Verilog concat-lvalue binds them in field
// declaration order, so the adapter reorders via the extern signature.
func RTLFuncs(externs []*ast.ExternDecl, impls map[string]sim.ExternFunc) (map[string]*rtl.Func, error) {
	funcs := make(map[string]*rtl.Func, len(externs))
	for _, e := range externs {
		impl, ok := impls[e.Name]
		if !ok {
			return nil, fmt.Errorf("cosim: extern %s has no implementation", e.Name)
		}
		params := make([]int, len(e.Params))
		for i, prm := range e.Params {
			params[i] = prm.Type.BitWidth()
		}
		var results []int
		var fields []string
		if e.Result.Kind == ast.TRecord {
			for _, f := range e.Result.Fields {
				results = append(results, f.Type.BitWidth())
				fields = append(fields, f.Name)
			}
		} else if w := e.Result.BitWidth(); w > 0 {
			results = append(results, w)
		}
		name, impl2, fields2, results2 := e.Name, impl, fields, results
		funcs[e.Name] = &rtl.Func{
			Params:  params,
			Results: results,
			Fn: func(args []val.Value) []val.Value {
				v := impl2(args)
				if len(fields2) > 0 {
					out := make([]val.Value, len(fields2))
					for i, f := range fields2 {
						fv, ok := v.Field(f)
						if !ok {
							panic(fmt.Sprintf("cosim: extern %s: missing record field %s", name, f))
						}
						out[i] = fv
					}
					return out
				}
				if len(results2) == 0 {
					return nil
				}
				return []val.Value{v.Val}
			},
		}
	}
	return funcs, nil
}

// harness holds both machines and the plan tying their coordinates.
type harness struct {
	opts    Options
	p       *designs.Processor
	model   *rtl.Model
	plan    *synth.RTLPlan
	rec     recorder
	mirror  []int
	slotIdx map[string]int // checker variable -> simulator slot index
	numEArg int

	// device write captured by the OnCycle hook, replayed onto the
	// RTL's <devVol>_dev_* ports the same cycle.
	devVol string
	devWE  bool
	devDin uint64

	prevRetired int
}

// Run cosimulates one program on one variant and reports the first
// divergence as a *DivergenceError.
func Run(opts Options) (*Result, error) {
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 200000
	}
	if opts.DMemEvery == 0 {
		opts.DMemEvery = 64
	}
	if opts.Storm || opts.Design != nil {
		opts.SkipGolden = true
	}

	h := &harness{opts: opts}
	h.devVol = opts.StormVol
	if h.devVol == "" {
		h.devVol = "mip"
	}

	// --- simulator side -------------------------------------------------
	cfg := sim.Config{Engine: opts.Engine, Observer: &h.rec}
	var inj *fault.Injector
	if opts.ChaosSeed != 0 {
		fc := fault.Default(opts.ChaosSeed)
		if !opts.Storm {
			fc.StormPct = 0
		} else if opts.StormPct != 0 {
			fc.StormPct = opts.StormPct
		}
		inj = fault.New(fc)
		cfg.Faults = inj
	}
	var p *designs.Processor
	var err error
	if opts.Design != nil {
		cfg.Externs = opts.Externs
		if cfg.Externs == nil {
			cfg.Externs = map[string]sim.ExternFunc{}
		}
		m, merr := opts.Design.NewMachine(cfg)
		if merr != nil {
			return nil, merr
		}
		p = &designs.Processor{Design: opts.Design, M: m}
		for i, w := range opts.IMem {
			m.MemPoke("imem", uint64(i), val.New(uint64(w), 32))
		}
	} else {
		p, err = designs.BuildCfg(opts.Variant, cfg)
		if err != nil {
			return nil, err
		}
		if (opts.Storm || opts.InterruptAt > 0) && !p.InterruptCapable() {
			return nil, fmt.Errorf("cosim: variant %s cannot take interrupts", opts.Variant)
		}
		if err := p.Load(opts.Program); err != nil {
			return nil, err
		}
		for name, v := range opts.Firmware {
			p.SetCSR(name, v)
		}
	}
	h.p = p

	// --- RTL side -------------------------------------------------------
	text, plans := synth.VerilogPlans(p.Design.Info, p.Design.Translations)
	plan, ok := plans["cpu"]
	if !ok {
		return nil, fmt.Errorf("cosim: cpu pipe of %s fell out of the synthesizable subset", opts.Variant)
	}
	h.plan = plan
	if opts.Verilog != "" {
		text = opts.Verilog
	}
	f, err := rtl.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("cosim: parse emitted verilog: %w", err)
	}
	mod := f.Module(plan.Module)
	if mod == nil {
		return nil, fmt.Errorf("cosim: module %s not emitted", plan.Module)
	}
	impls := designs.Externs()
	if opts.Design != nil {
		impls = opts.Externs
	}
	funcs, err := RTLFuncs(p.Design.Info.Prog.Externs, impls)
	if err != nil {
		return nil, err
	}
	model, err := rtl.Elaborate(mod, funcs)
	if err != nil {
		return nil, fmt.Errorf("cosim: elaborate: %w", err)
	}
	h.model = model

	h.slotIdx = make(map[string]int)
	for _, s := range plan.Slots {
		if s.Var == "" {
			continue
		}
		if idx, ok := p.M.SlotIndex("cpu", s.Var); ok {
			h.slotIdx[s.Var] = idx
		} else {
			return nil, fmt.Errorf("cosim: plan slot %s has no simulator slot", s.Var)
		}
	}
	h.numEArg = plan.NumEArgs

	// Interrupt sources run as a simulator device at cycle start; the
	// hook also captures the merged mip value for the RTL's device port.
	if len(opts.StormSchedule) > 0 {
		sched := opts.StormSchedule
		next := 0
		p.M.OnCycle(func(m *sim.Machine) {
			c := m.Cycle()
			for next < len(sched) && sched[next] < c {
				next++
			}
			if next < len(sched) && sched[next] == c {
				next++
				m.VolPoke(h.devVol, val.New(1, m.VolPeek(h.devVol).Width()))
				h.devWE = true
				h.devDin = m.VolPeek(h.devVol).Uint()
			}
		})
	}
	if opts.Storm || opts.InterruptAt > 0 {
		p.M.OnCycle(func(m *sim.Machine) {
			raised := false
			if opts.Storm && inj != nil {
				if line, ok := inj.Storm(m.Cycle(), len(stormBits)); ok {
					p.RaiseInterrupt(stormBits[line])
					raised = true
				}
			}
			if opts.InterruptAt > 0 && m.Cycle() == opts.InterruptAt {
				p.RaiseInterrupt(opts.InterruptBit)
				raised = true
			}
			if raised {
				h.devWE = true
				h.devDin = uint64(p.CSR("mip"))
			}
		})
	}

	cycles := 0
	if opts.Resume != nil {
		if cycles, err = h.restoreCheckpoint(opts.Resume); err != nil {
			return nil, err
		}
	} else {
		if err := h.resetAndLoad(); err != nil {
			return nil, err
		}
		if err := p.Boot(); err != nil {
			return nil, err
		}
		// The boot instruction is already in the simulator's entry queue;
		// on the RTL it arrives through the start_valid strobe during the
		// first cycle, so it has no cycle-start queue index yet.
		h.mirror = []int{-1}
	}

	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	for p.M.InFlight() > 0 {
		if cycles >= opts.MaxCycles {
			return nil, fmt.Errorf("cosim: cycle budget %d exhausted with %d in flight",
				opts.MaxCycles, p.M.InFlight())
		}
		select {
		case <-done:
			ce := &CanceledError{Cycle: cycles, Cause: opts.Ctx.Err()}
			ce.Snapshot, _ = h.checkpoint(cycles)
			return nil, ce
		default:
		}
		if err := h.cycleContained(cycles == 0, cycles); err != nil {
			return nil, err
		}
		cycles++
		if opts.CheckpointEvery > 0 && opts.Checkpoint != nil && cycles%opts.CheckpointEvery == 0 {
			b, err := h.checkpoint(cycles)
			if err != nil {
				return nil, fmt.Errorf("cosim: checkpoint at cycle %d: %w", cycles, err)
			}
			if err := opts.Checkpoint(b); err != nil {
				return nil, fmt.Errorf("cosim: checkpoint at cycle %d: %w", cycles, err)
			}
		}
	}

	if err := h.finalDiff(); err != nil {
		return nil, err
	}
	if !opts.SkipGolden {
		if err := h.goldenDiff(); err != nil {
			return nil, err
		}
	}
	return &Result{Cycles: cycles, Retired: len(p.Retired())}, nil
}

// stormBits mirrors designs.AttachStorm's line order, so a chaos seed
// perturbs the cosimulated machine exactly as it does the chaos suite.
var stormBits = [...]uint32{riscv.MIPMSIP, riscv.MIPMTIP, riscv.MIPMEIP}

// resetAndLoad pulses reset and initialises the RTL memories to match
// the loaded simulator.
func (h *harness) resetAndLoad() error {
	m := h.model
	if err := m.Poke("rst", val.New(1, 1)); err != nil {
		return err
	}
	if err := m.Settle(); err != nil {
		return fmt.Errorf("cosim: settle under reset: %w", err)
	}
	if err := m.Clock(); err != nil {
		return fmt.Errorf("cosim: reset clock: %w", err)
	}
	if err := m.Poke("rst", val.New(0, 1)); err != nil {
		return err
	}
	load := func(mem synth.PlanMem) error {
		for i := 0; i < mem.Depth; i++ {
			v := h.p.M.MemPeek(mem.Name, uint64(i))
			if err := m.PokeArray(mem.Name+"_arr", i, val.New(v.Uint(), mem.Width)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, mem := range h.plan.Mems {
		if err := load(mem); err != nil {
			return err
		}
	}
	for _, mem := range h.plan.PlainMems {
		if err := load(mem); err != nil {
			return err
		}
	}
	// Volatiles boot to their simulator values (normally zero).
	for _, v := range h.plan.Vols {
		sv := h.p.M.VolPeek(v.Name)
		if err := m.Poke(v.Name+"_dev_we", val.New(1, 1)); err != nil {
			return err
		}
		if err := m.Poke(v.Name+"_dev_din", val.New(sv.Uint(), v.Width)); err != nil {
			return err
		}
	}
	if len(h.plan.Vols) > 0 {
		if err := m.Settle(); err != nil {
			return err
		}
		if err := m.Clock(); err != nil {
			return err
		}
		for _, v := range h.plan.Vols {
			if err := m.Poke(v.Name+"_dev_we", val.New(0, 1)); err != nil {
				return err
			}
		}
	}
	return nil
}

// cycle advances both machines one clock and compares them.
func (h *harness) cycle(boot bool) error {
	p, m := h.p, h.model
	simCycle := p.M.Cycle()

	h.rec.reset(h.mirror)
	h.devWE = false
	if err := p.M.Step(); err != nil {
		return fmt.Errorf("cosim: simulator: %w", err)
	}
	if h.rec.err != nil {
		return h.rec.err
	}

	// Replay the observed schedule into the module inputs.
	n := len(h.plan.Nodes)
	pokes := []struct {
		name string
		v    val.Value
	}{
		{"fire", val.New(h.rec.fire, n)},
		{"kill", val.New(h.rec.kill, n)},
		{"q_kill", val.New(h.rec.qkill, h.plan.EntryCap)},
		{"entry_pop", val.New(b2u(h.rec.pop), 1)},
		{"start_valid", val.New(b2u(boot), 1)},
	}
	for _, pk := range pokes {
		if err := m.Poke(pk.name, pk.v); err != nil {
			return err
		}
	}
	if boot {
		for _, prm := range h.plan.Params {
			if err := m.Poke("start_"+prm.Name, val.New(0, prm.Width)); err != nil {
				return err
			}
		}
	}
	for _, v := range h.plan.Vols {
		we, din := uint64(0), uint64(0)
		if v.Name == h.devVol && h.devWE {
			we, din = 1, h.devDin
		}
		if err := m.Poke(v.Name+"_dev_we", val.New(we, 1)); err != nil {
			return err
		}
		if err := m.Poke(v.Name+"_dev_din", val.New(din, v.Width)); err != nil {
			return err
		}
	}

	if err := m.Settle(); err != nil {
		return fmt.Errorf("cosim: cycle %d: settle: %w", simCycle, err)
	}
	if err := h.compareRetire(simCycle); err != nil {
		return err
	}
	if err := m.Clock(); err != nil {
		return fmt.Errorf("cosim: cycle %d: clock: %w", simCycle, err)
	}
	if err := h.compareState(simCycle); err != nil {
		return err
	}

	// Post-edge, the RTL queue was verified identical to the simulator's,
	// so next cycle's kill mask indexes it directly.
	h.mirror = h.mirror[:0]
	for i := 0; i < p.M.QueueLen("cpu"); i++ {
		h.mirror = append(h.mirror, i)
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (h *harness) peek(name string) (uint64, error) {
	v, err := h.model.Peek(name)
	if err != nil {
		return 0, fmt.Errorf("cosim: %w", err)
	}
	return v.Uint(), nil
}

func (h *harness) check(cycle int, signal string, got, want uint64, detail string) error {
	if got != want {
		return &DivergenceError{Cycle: cycle, Signal: signal, Got: got, Want: want, Detail: detail}
	}
	return nil
}

// compareRetire checks the retirement observation ports against the
// simulator's retirement trace delta for this cycle. Two instructions
// can retire in the same cycle (one on the commit tail, one on the
// except tail); the ports then expose the mux-priority one, so the
// harness matches on the exceptional flag.
func (h *harness) compareRetire(cycle int) error {
	all := h.p.M.Retired()
	delta := all[h.prevRetired:]
	h.prevRetired = len(all)

	rv, err := h.peek("retire_v")
	if err != nil {
		return err
	}
	if len(delta) == 0 {
		return h.check(cycle, "retire_v", rv, 0, "no simulator retirement this cycle")
	}
	if rv != 1 {
		return h.check(cycle, "retire_v", rv, 1, "simulator retired this cycle")
	}
	rexc, err := h.peek("retire_exc")
	if err != nil {
		return err
	}
	var match *sim.Retirement
	for i := range delta {
		if b2u(delta[i].Exceptional) == rexc {
			match = &delta[i]
			break
		}
	}
	if match == nil {
		return h.check(cycle, "retire_exc", rexc, b2u(delta[0].Exceptional), "exceptional flag")
	}
	for i, prm := range h.plan.Params {
		got, err := h.peek("retire_" + prm.Name)
		if err != nil {
			return err
		}
		if i < len(match.Args) {
			if err := h.check(cycle, "retire_"+prm.Name, got, match.Args[i].Uint(), "retired argument"); err != nil {
				return err
			}
		}
	}
	if match.Exceptional {
		for i := 0; i < h.numEArg && i < len(match.EArgs); i++ {
			if match.EArgs[i].Width() == 0 {
				continue
			}
			got, err := h.peek(fmt.Sprintf("retire_earg%d", i))
			if err != nil {
				return err
			}
			if err := h.check(cycle, fmt.Sprintf("retire_earg%d", i), got, match.EArgs[i].Uint(), "except argument"); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareState diffs committed architectural state after the clock edge.
func (h *harness) compareState(cycle int) error {
	p, plan := h.p, h.plan
	msim := p.M

	for _, nd := range plan.Nodes {
		occ := msim.StageOccupied("cpu", nd.Pos)
		v, err := h.peek(nd.Prefix + "_valid")
		if err != nil {
			return err
		}
		if err := h.check(cycle, nd.Prefix+"_valid", v, b2u(occ), msim.NodeLabel("cpu", nd.Pos)); err != nil {
			return err
		}
		if !occ {
			continue
		}
		if plan.Translated {
			lef, err := h.peek(nd.Prefix + "_lef")
			if err != nil {
				return err
			}
			if err := h.check(cycle, nd.Prefix+"_lef", lef, b2u(msim.StageLEF("cpu", nd.Pos)), "local exception flag"); err != nil {
				return err
			}
		}
		for _, s := range plan.Slots {
			if s.IsHandle || s.IsEArg {
				continue
			}
			sv, ok := msim.StageSlot("cpu", nd.Pos, h.slotIdx[s.Var])
			if !ok {
				continue // undriven: architecturally unobservable
			}
			var want val.Value
			if s.Field != "" {
				fv, ok := sv.Field(s.Field)
				if !ok {
					continue
				}
				want = fv
			} else {
				if sv.IsRecord() {
					continue
				}
				want = sv.Val
			}
			got, err := h.peek(nd.Prefix + "_r_" + s.Name)
			if err != nil {
				return err
			}
			if err := h.check(cycle, nd.Prefix+"_r_"+s.Name, got, want.Uint(), "stage slot"); err != nil {
				return err
			}
		}
		eargs := msim.StageEArgs("cpu", nd.Pos)
		for i := 0; i < h.numEArg && i < len(eargs); i++ {
			if eargs[i].Width() == 0 {
				continue
			}
			got, err := h.peek(fmt.Sprintf("%s_r_earg%d", nd.Prefix, i))
			if err != nil {
				return err
			}
			if err := h.check(cycle, fmt.Sprintf("%s_r_earg%d", nd.Prefix, i), got, eargs[i].Uint(), "except argument slot"); err != nil {
				return err
			}
		}
	}

	if plan.Translated {
		gef, err := h.peek("gef_q")
		if err != nil {
			return err
		}
		if err := h.check(cycle, "gef_q", gef, b2u(msim.GefSet("cpu")), "global exception flag"); err != nil {
			return err
		}
	}
	for _, vd := range plan.Vols {
		got, err := h.peek(vd.Name + "_q")
		if err != nil {
			return err
		}
		if err := h.check(cycle, vd.Name+"_q", got, msim.VolPeek(vd.Name).Uint(), "volatile register"); err != nil {
			return err
		}
	}

	qlen, err := h.peek("q_len")
	if err != nil {
		return err
	}
	if err := h.check(cycle, "q_len", qlen, uint64(msim.QueueLen("cpu")), "entry queue depth"); err != nil {
		return err
	}
	for i := 0; i < msim.QueueLen("cpu"); i++ {
		for j, prm := range plan.Params {
			gv, err := h.model.PeekArray("qv_"+prm.Name, i)
			if err != nil {
				return fmt.Errorf("cosim: %w", err)
			}
			if err := h.check(cycle, fmt.Sprintf("qv_%s[%d]", prm.Name, i), gv.Uint(),
				msim.QueueArg("cpu", i, j).Uint(), "queued argument"); err != nil {
				return err
			}
		}
	}

	for _, mem := range plan.Mems {
		if mem.Depth > 64 && cycle%h.opts.DMemEvery != 0 {
			continue
		}
		if err := h.compareMem(cycle, mem); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) compareMem(cycle int, mem synth.PlanMem) error {
	for i := 0; i < mem.Depth; i++ {
		gv, err := h.model.PeekArray(mem.Name+"_arr", i)
		if err != nil {
			return fmt.Errorf("cosim: %w", err)
		}
		want := h.p.M.MemPeek(mem.Name, uint64(i)).Uint()
		if err := h.check(cycle, fmt.Sprintf("%s_arr[%d]", mem.Name, i), gv.Uint(), want, "memory word"); err != nil {
			return err
		}
	}
	return nil
}

// finalDiff re-checks every locked memory word once the pipeline has
// drained (the per-cycle loop throttles large memories).
func (h *harness) finalDiff() error {
	cycle := h.p.M.Cycle()
	for _, mem := range h.plan.Mems {
		if err := h.compareMem(cycle, mem); err != nil {
			return err
		}
	}
	return nil
}

// goldenDiff runs the same program on the OIAT reference and diffs the
// RTL's final architectural state against it. For single-interrupt runs
// the golden model replays the interrupt at the retirement boundary the
// pipeline chose, exactly like the simulator's OIAT suite.
func (h *harness) goldenDiff() error {
	g := golden.New(h.opts.Program.Text, h.opts.Program.Data, designs.DMemWords)
	for name, v := range h.opts.Firmware {
		addr, ok := csrAddrs[name]
		if !ok {
			return fmt.Errorf("cosim: firmware CSR %s has no RISC-V address", name)
		}
		idx, _ := riscv.CSRIndex(addr)
		g.CSR[idx] = v
	}
	boundary := -1
	if h.opts.InterruptAt > 0 {
		for k, r := range h.p.Retired() {
			if r.Exceptional && len(r.EArgs) > 0 && r.EArgs[0].Uint() == designs.KInt {
				boundary = k
				break
			}
		}
	}
	for steps := 0; !g.Halted && steps < 4*h.opts.MaxCycles; steps++ {
		if boundary >= 0 && len(g.Trace) == boundary {
			g.RaiseInterrupt(h.opts.InterruptBit)
			boundary = -1
		}
		if err := g.Step(); err != nil {
			return fmt.Errorf("cosim: golden: %w", err)
		}
	}
	if !g.Halted {
		return fmt.Errorf("cosim: golden model did not halt (pc=%#x)", g.PC)
	}

	cycle := h.p.M.Cycle()
	for i := 1; i < 32; i++ {
		gv, err := h.model.PeekArray("rf_arr", i)
		if err != nil {
			return fmt.Errorf("cosim: %w", err)
		}
		if err := h.check(cycle, fmt.Sprintf("rf_arr[%d]", i), gv.Uint(), uint64(g.Regs[i]), "OIAT register"); err != nil {
			return err
		}
	}
	for i := 0; i < designs.DMemWords; i++ {
		gv, err := h.model.PeekArray("dmem_arr", i)
		if err != nil {
			return fmt.Errorf("cosim: %w", err)
		}
		if err := h.check(cycle, fmt.Sprintf("dmem_arr[%d]", i), gv.Uint(), uint64(g.DMem[i]), "OIAT memory word"); err != nil {
			return err
		}
	}
	for _, vd := range h.plan.Vols {
		addr, ok := csrAddrs[vd.Name]
		if !ok {
			continue
		}
		idx, _ := riscv.CSRIndex(addr)
		gv, err := h.peek(vd.Name + "_q")
		if err != nil {
			return err
		}
		if err := h.check(cycle, vd.Name+"_q", gv, uint64(g.CSR[idx]), "OIAT CSR"); err != nil {
			return err
		}
	}
	return nil
}

// csrAddrs maps the designs' CSR volatiles to RISC-V CSR addresses for
// the golden-model diff.
var csrAddrs = map[string]uint32{
	"mstatus": riscv.CSRMStatus, "mie": riscv.CSRMIE, "mtvec": riscv.CSRMTVec,
	"mscratch": riscv.CSRMScratch, "mepc": riscv.CSRMEPC,
	"mcause": riscv.CSRMCause, "mtval": riscv.CSRMTVal, "mip": riscv.CSRMIP,
}
