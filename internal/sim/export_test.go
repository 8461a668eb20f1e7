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
