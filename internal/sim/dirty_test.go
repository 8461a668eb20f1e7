// Dirty-list completeness: fire writes back only the slots listed in
// vm.Env.Dirty, and both engines reach the list through the same store
// paths (vm.Env.StoreLoc / StorePend). A store path that stamped a slot
// without listing it would drop the write on both engines alike, which
// the vm-vs-interp differentials cannot see; this test checks the list
// against the epoch stamps after every firing instead.
package sim_test

import (
	"fmt"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/fault"
	"xpdl/internal/sim"
)

// dirtyCheck checks the dirty list from inside every firing's observer
// callbacks (after write-back and effects).
type dirtyCheck struct {
	t       *testing.T
	m       *sim.Machine
	firings int
}

func (c *dirtyCheck) check(where string) {
	c.t.Helper()
	if missing, dup := c.m.DirtyGaps(); missing != nil || dup != nil {
		c.t.Fatalf("cycle %d, %s: slots stamped but not listed %v, listed twice %v",
			c.m.Cycle(), where, missing, dup)
	}
}

func (c *dirtyCheck) StageFired(pipe string, pos int) {
	c.firings++
	c.check(fmt.Sprintf("fired %s@%d", pipe, pos))
}
func (c *dirtyCheck) EntryPulled(string) {}
func (c *dirtyCheck) InstKilled(pipe string, pos, q int) {
	c.check(fmt.Sprintf("killed %s@%d q%d", pipe, pos, q))
}

func TestDirtyListComplete(t *testing.T) {
	prog, err := asm.Assemble(progTrapLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range designs.Variants() {
		for _, engine := range sim.Engines() {
			for _, seed := range []uint64{0, chaosSeeds[0]} {
				t.Run(fmt.Sprintf("%s/%s/seed%#x", v, engine, seed), func(t *testing.T) {
					t.Parallel()
					dc := &dirtyCheck{t: t}
					cfg := sim.Config{Engine: engine, Observer: dc}
					var inj *fault.Injector
					if seed != 0 {
						inj = fault.New(fault.Default(seed))
						cfg.Faults = inj
					}
					p, err := designs.BuildCfg(v, cfg)
					if err != nil {
						t.Fatal(err)
					}
					dc.m = p.M
					if err := p.Load(prog); err != nil {
						t.Fatal(err)
					}
					if err := p.Boot(); err != nil {
						t.Fatal(err)
					}
					if inj != nil {
						p.AttachStorm(inj)
					}
					// The trap variant has no CSRs, so its handler loops
					// until the cycle cap; the others drain.
					for cyc := 0; cyc < 20000 && p.M.InFlight() > 0; cyc++ {
						if err := p.M.Step(); err != nil {
							t.Fatalf("cycle %d: %v", cyc, err)
						}
						// Between Steps the last attempt may have stalled:
						// its stamps must be listed too.
						dc.check("after step")
					}
					if dc.firings == 0 {
						t.Fatal("no firings observed")
					}
				})
			}
		}
	}
}
