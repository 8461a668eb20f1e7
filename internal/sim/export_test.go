package sim

import "xpdl/internal/vm"

// VMProgram exposes the machine's compiled bytecode image to the
// external tests.
func (m *Machine) VMProgram() *vm.Program { return m.vmProg }

// VMProgCacheLen counts the designs with a live cached Program.
func VMProgCacheLen() int {
	n := 0
	vmProgCache.Range(func(_, _ any) bool { n++; return true })
	return n
}
