// Lifetime of the shared bytecode image: every machine built from one
// design runs the same *vm.Program (batch lanes and bveq sweeps depend
// on it), and the cache holding those images must not outlive the
// designs — a daemon compiles fresh designs for every cosim and bveq
// job, so a leaked image per compile grows its heap without bound.
package sim_test

import (
	"runtime"
	"testing"
	"time"

	"xpdl"
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
	if interp, err := d.NewMachine(sim.Config{Engine: "interp", Externs: designs.Externs()}); err != nil {
		t.Fatal(err)
	} else if interp.VMProgram() != nil {
		t.Error("interp machine compiled a bytecode program")
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

// settleHeap collects garbage until the program cache has dropped to
// at most want entries (the evicting finalizers run on their own
// goroutine after the collection that finds a design unreachable), then
// reports the live heap.
func settleHeap(t *testing.T, want int) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if sim.VMProgCacheLen() <= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("program cache holds %d entries after collection, want at most %d", sim.VMProgCacheLen(), want)
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
