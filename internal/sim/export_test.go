package sim

import (
	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// VMProgram exposes the machine's compiled bytecode image to the
// external tests.
func (m *Machine) VMProgram() *vm.Program { return m.vmProg }

// Resolution exposes the machine's name-resolution table.
func (m *Machine) Resolution() *vm.Resolution { return m.res }

// Effects is the current firing's effect log and spawn-argument arena.
// Read from an Observer's StageFired/InstKilled callbacks, it is the log
// the firing just applied; the slices are reused by the next firing.
func (m *Machine) Effects() ([]vm.Effect, []val.Value) {
	return m.env.Effects, m.env.SpawnArgs
}

// DesignCacheLen counts the designs with a live cached record.
func DesignCacheLen() int {
	n := 0
	designCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// DirtyGaps checks the current firing's dirty-slot list (vm.Env.Dirty)
// against the epoch stamps: missing are the slots stamped in the
// current epoch but not listed, dup the slots listed more than once.
// Read from an Observer callback or between Steps, both nil means the
// last firing's write-back saw every slot it wrote.
func (m *Machine) DirtyGaps() (missing, dup []int) {
	sc := &m.scratch
	listed := make(map[int]int)
	for _, s := range m.env.Dirty {
		listed[int(s)]++
	}
	for s := range sc.local {
		stamped := sc.localEpoch[s] == sc.epoch || sc.pendEpoch[s] == sc.epoch
		if stamped && listed[s] == 0 {
			missing = append(missing, s)
		}
		if listed[s] > 1 {
			dup = append(dup, s)
		}
	}
	return missing, dup
}
