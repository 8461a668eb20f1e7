// Lifetime of the shared per-design record: every machine built from
// one design reads the same name-resolution table and, on the vm, runs
// the same *vm.Program (bveq sweeps depend on it), and
// the cache holding those records must not outlive the designs — a
// daemon compiles fresh designs for every cosim and bveq job, so a
// leaked record per compile grows its heap without bound.
package sim_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"xpdl"
	"xpdl/internal/asm"
	"xpdl/internal/core"
	"xpdl/internal/designs"
	"xpdl/internal/sim"
)

func TestVMProgramSharedPerDesign(t *testing.T) {
	d, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		t.Fatal(err)
	}
	newVM := func(d *xpdl.Design) *sim.Machine {
		t.Helper()
		m, err := d.NewMachine(sim.Config{Engine: "vm", Externs: designs.Externs()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := newVM(d), newVM(d)
	if a.VMProgram() == nil || a.VMProgram() != b.VMProgram() {
		t.Fatalf("two machines of one design run different programs (%p, %p)", a.VMProgram(), b.VMProgram())
	}
	if a.Resolution() == nil || a.Resolution() != b.Resolution() {
		t.Fatalf("two machines of one design resolve names apart (%p, %p)", a.Resolution(), b.Resolution())
	}
	if interp, err := d.NewMachine(sim.Config{Engine: "interp", Externs: designs.Externs()}); err != nil {
		t.Fatal(err)
	} else {
		if interp.VMProgram() != nil {
			t.Error("interp machine compiled a bytecode program")
		}
		if interp.Resolution() != a.Resolution() {
			t.Error("interp machine built its own resolution table")
		}
	}

	// The cache is keyed by design identity: a second compile of the
	// same source is another design with its own image.
	d2, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		t.Fatal(err)
	}
	if c := newVM(d2); c.VMProgram() == a.VMProgram() {
		t.Error("a fresh compile reused another design's program")
	}
	runtime.KeepAlive(d)
}

// TestDesignSharedAcrossGoroutines builds machines of one fresh design
// on both engines from several goroutines at once (a bveq sweep or a
// daemon's workers): all of them must end up on one resolution table
// and the vm ones on one Program.
func TestDesignSharedAcrossGoroutines(t *testing.T) {
	d, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	ms := make([]*sim.Machine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = d.NewMachine(sim.Config{Engine: sim.Engines()[i%2], Externs: designs.Externs()})
		}(i)
	}
	wg.Wait()
	for i, m := range ms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if m.Resolution() != ms[0].Resolution() {
			t.Errorf("machine %d resolved the design apart", i)
		}
		if i%2 == 1 && m.VMProgram() != ms[1].VMProgram() {
			t.Errorf("vm machine %d runs its own program", i)
		}
	}
}

// TestDesignCacheKeysOnTranslation builds vm machines from two
// translations of one checked design. The resolution table and the
// bytecode key on translated AST nodes, so each translation needs its
// own; sharing the first one's would run it for the second, and the
// interpreter would find the second's nodes unresolved.
func TestDesignCacheKeysOnTranslation(t *testing.T) {
	d, err := xpdl.Compile(designs.Source(designs.All))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(progTrapEcall)
	if err != nil {
		t.Fatal(err)
	}
	trs2 := core.TranslateProgram(d.Info)
	run := func(trs map[string]*core.Result, engine string) *designs.Processor {
		t.Helper()
		m, err := sim.New(d.Info, trs, sim.Config{Engine: engine, Externs: designs.Externs()})
		if err != nil {
			t.Fatal(err)
		}
		p := &designs.Processor{Variant: designs.All, Design: d, M: m}
		if err := p.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := p.Boot(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(10000); err != nil {
			t.Fatalf("%s on translation %p: %v", engine, trs, err)
		}
		return p
	}
	a, b := run(d.Translations, "vm"), run(trs2, "vm")
	if a.M.VMProgram() == b.M.VMProgram() {
		t.Error("a second translation of one design ran the first translation's program")
	}
	i := run(trs2, "interp")
	if i.M.Resolution() != b.M.Resolution() || i.M.Resolution() == a.M.Resolution() {
		t.Error("machines of one translation do not share exactly its resolution table")
	}
	compareMachines(t, "vm", "interp", b, i, b.M.Cycle(), i.M.Cycle())
	compareMachines(t, "second", "first", b, a, b.M.Cycle(), a.M.Cycle())
}

// settleHeap collects garbage until the program cache has dropped to
// at most want entries (the evicting finalizers run on their own
// goroutine after the collection that finds a design unreachable), then
// reports the live heap.
func settleHeap(t *testing.T, want int) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if sim.DesignCacheLen() <= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("program cache holds %d entries after collection, want at most %d", sim.DesignCacheLen(), want)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC() // free the designs and images the finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestVMProgCacheFollowsDesignLifetime(t *testing.T) {
	const builds = 50
	fresh := func() {
		p, err := designs.BuildCfg(designs.All, sim.Config{Engine: "vm"})
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(p)
	}
	fresh() // warm one-time allocations
	before := settleHeap(t, 0)
	for i := 0; i < builds; i++ {
		fresh()
	}
	after := settleHeap(t, 0)
	// A retained image costs ~57 KB per build on the all processor; a
	// flat heap stays far below even a tenth of that per build.
	if growth := int64(after) - int64(before); growth > builds*4<<10 {
		t.Errorf("heap grew %d KB over %d fresh compile+build cycles (%d B per build)",
			growth>>10, builds, growth/builds)
	}
}
