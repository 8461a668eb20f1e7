// Effect-log differential test: both executors fill one firing record
// (vm.Env) and commit it through one apply loop, so for every firing
// the interpreter oracle and the vm must produce the same effect log —
// kind, operands and spawn arguments, record for record.
package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/sim"
	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// progTrapLoop takes an ecall round trip and an illegal-instruction trap
// on every iteration, with a data-dependent branch that mispredicts
// every other time (speculative squashes) and a store on one arm.
const progTrapLoop = `
        li   t0, 52
        csrw mtvec, t0
        li   s0, 0
        li   s1, 6
loop:   ecall
        .word 0xFFFFFFFF
        addi s0, s0, 1
        andi t2, s0, 1
        bne  t2, zero, skip
        sw   s0, 0(zero)
skip:   blt  s0, s1, loop
        ebreak
        nop
        # handler (byte 52):
        csrr t1, mepc
        addi t1, t1, 4
        csrw mepc, t1
        mret
`

// firingLog is one observer event with the effect log of the firing
// that produced it, spawn arguments resolved out of the arena.
type firingLog struct {
	event   string
	effects []vm.Effect
	args    [][]val.Value
}

// effectTap snapshots the machine's effect log at every StageFired and
// InstKilled callback (both run after the firing's log is complete).
type effectTap struct {
	m   *sim.Machine
	log []firingLog
}

func (t *effectTap) record(event string) {
	effs, arena := t.m.Effects()
	fl := firingLog{event: event, effects: append([]vm.Effect(nil), effs...)}
	for _, e := range effs {
		var args []val.Value
		if e.Kind == vm.EffSpawn || e.Kind == vm.EffSpecSpawn {
			args = append(args, arena[e.ArgOff:e.ArgOff+e.ArgN]...)
		}
		fl.args = append(fl.args, args)
	}
	t.log = append(t.log, fl)
}

func (t *effectTap) StageFired(pipe string, pos int) { t.record(fmt.Sprintf("fired %s@%d", pipe, pos)) }
func (t *effectTap) EntryPulled(string)              {}
func (t *effectTap) InstKilled(pipe string, pos, q int) {
	t.record(fmt.Sprintf("killed %s@%d q%d", pipe, pos, q))
}

// tappedMachine builds, loads and boots a variant on one engine with an
// effect tap and, for a nonzero seed, a chaos injector and storm.
func tappedMachine(t *testing.T, v designs.Variant, engine string, seed uint64) (*designs.Processor, *effectTap) {
	t.Helper()
	tap := &effectTap{}
	cfg := sim.Config{Engine: engine, Observer: tap}
	var inj *fault.Injector
	if seed != 0 {
		inj = fault.New(fault.Default(seed))
		cfg.Faults = inj
	}
	p, err := designs.BuildCfg(v, cfg)
	if err != nil {
		t.Fatalf("build %s %s: %v", engine, v, err)
	}
	tap.m = p.M
	prog, err := asm.Assemble(progTrapLoop)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Boot(); err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		p.AttachStorm(inj)
	}
	return p, tap
}

func TestEffectLogDifferential(t *testing.T) {
	for _, v := range designs.Variants() {
		for _, seed := range []uint64{0, chaosSeeds[0]} {
			t.Run(fmt.Sprintf("%s/seed%#x", v, seed), func(t *testing.T) {
				t.Parallel()
				ip, itap := tappedMachine(t, v, "interp", seed)
				vp, vtap := tappedMachine(t, v, "vm", seed)
				kinds := map[uint8]int{}
				for cyc := 0; cyc < 20000 && (ip.M.InFlight() > 0 || vp.M.InFlight() > 0); cyc++ {
					ierr, verr := ip.M.Step(), vp.M.Step()
					if fmt.Sprint(ierr) != fmt.Sprint(verr) {
						t.Fatalf("cycle %d: interp error %v, vm error %v", cyc, ierr, verr)
					}
					if len(itap.log) != len(vtap.log) {
						t.Fatalf("cycle %d: interp logged %d events, vm %d", cyc, len(itap.log), len(vtap.log))
					}
					for k := range itap.log {
						if !reflect.DeepEqual(itap.log[k], vtap.log[k]) {
							t.Fatalf("cycle %d: effect logs differ\ninterp %+v\nvm     %+v", cyc, itap.log[k], vtap.log[k])
						}
						for _, e := range itap.log[k].effects {
							kinds[e.Kind]++
						}
					}
					itap.log, vtap.log = itap.log[:0], vtap.log[:0]
					if ierr != nil {
						break
					}
				}
				if kinds[vm.EffSpawn]+kinds[vm.EffSpecSpawn] == 0 {
					t.Error("no spawn effects: the program did not run")
				}
				if v != designs.Base && kinds[vm.EffSetGEF] == 0 {
					t.Errorf("no exception taken on %s (effect kinds %v)", v, kinds)
				}
			})
		}
	}
}
