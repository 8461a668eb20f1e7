// The machine's side of the one firing contract both engines share. A
// firing fills the machine's single vm.Env: the vm's dispatch loop
// (Config.Engine "vm", the default, running the design's shared
// Program) or the AST interpreter (exec.go) records deferred effects as
// vm.Effect records and reports its outcome in the Env flags. Everything
// around that — preconditions, lock transactions, write-back, the one
// effect apply loop below, destination choice — is fire's, so the
// engines differ only in how a stage's statements execute, never in what
// a firing means.
package sim

import (
	"xpdl/internal/pdl/ast"
	"xpdl/internal/vm"
)

// compileVMProgram lowers the design to bytecode against its shared
// resolution. Everything it reads from this machine is
// machine-independent (the stage graph's statements and global ids), so
// the result is shareable.
func (m *Machine) compileVMProgram(nstages int) *vm.Program {
	c := vm.NewCompiler(m.res, nstages)
	c.CompileFuncs(m.funcs)
	for _, ps := range m.pipeList {
		tr := ps.res
		ctx := vm.StageCtx{
			PipeIdx: ps.idx, PipeName: ps.name, NSlots: len(ps.zeroes),
			EArgW: func(i int) int { return tr.EArgs[i].Type.BitWidth() },
		}
		for _, node := range ps.nodes {
			var commit, exc []ast.Stmt
			if node.fork != nil {
				commit, exc = node.fork.commitStage0, node.fork.excStage0
			}
			c.CompileStage(node.gid, ctx, node.stmts, commit, exc)
		}
	}
	return c.Finish()
}

// initEnv wires the firing environment to the machine's arenas and
// struct-of-arrays state. This happens once: the referenced slices are
// fully sized by New, and Restore mutates them in place.
func (m *Machine) initEnv() {
	e := &m.env
	e.Loc = m.scratch.local
	e.LocEp = m.scratch.localEpoch
	e.Pend = m.scratch.pend
	e.PendEp = m.scratch.pendEpoch
	e.Gefs = m.gefs
	e.Vols = m.volVals
	e.Mems = m.memList
	e.Plains = m.plainList
	if m.faults != nil { // keep the interface nil when injection is off
		e.Faults = m.faults
	}
	e.Host = vmHost{m}
	e.EntryCap = m.cfg.EntryCap
	e.SpawnCnt = make([]int, len(m.pipeOrder))
}

// vmHost exposes the two pieces of machine state the dispatch loop
// reaches outside its arenas (both on cold spawn paths).
type vmHost struct{ m *Machine }

func (h vmHost) QueueLen(pipe int) int { return len(h.m.pipeList[pipe].entryQ) }

func (h vmHost) NextSpecHandle(pipe int) uint64 {
	t := h.m.pipeList[pipe].specTab
	v := t.nextHandle
	t.nextHandle++
	return v
}

// applyEffects commits a successful firing's effect log in program
// order, after every lock transaction committed. A death's instruction
// removal always comes last (both engines stop at the dying
// instruction, so no later effects exist).
func (m *Machine) applyEffects(in *inst) {
	e := &m.env
	for i := range e.Effects {
		ef := &e.Effects[i]
		switch ef.Kind {
		case vm.EffVolWrite:
			m.volVals[ef.A] = ef.Val
		case vm.EffSetGEF:
			m.gefs[ef.A] = ef.Flag
		case vm.EffPipeClear:
			m.pipeClear(m.pipeList[ef.A], in)
		case vm.EffSpecClear:
			m.pipeList[ef.A].specTab.clear()
		case vm.EffVerify:
			t := m.pipeList[ef.A].specTab
			if t.entries[ef.H] == specPending {
				t.entries[ef.H] = specVerified
			}
		case vm.EffInvalidate:
			m.pipeList[ef.A].specTab.entries[ef.H] = specInvalid
			for _, other := range m.snapshotAlive() {
				if other.spec && other.specHandle == ef.H {
					m.squash(other.iid)
				}
			}
		case vm.EffSpecResolve:
			in.spec = false
			delete(m.pipeList[ef.A].specTab.entries, in.specHandle)
		case vm.EffReturn:
			caller, alive := m.alive[in.callerIID]
			if !alive {
				continue // caller was squashed or flushed; result is dropped
			}
			if in.resultVar != "" {
				if slot, ok := caller.pipe.slotOf[in.resultVar]; ok {
					caller.vars[slot] = slotVal{V: ef.V, OK: true}
				}
			}
			caller.waiting = nil
		case vm.EffSpawn:
			ps := m.pipeList[ef.A]
			args := e.SpawnArgs[ef.ArgOff : ef.ArgOff+ef.ArgN]
			if ef.Flag { // blocking cross-pipe call
				rv := ""
				if ef.Str >= 0 {
					rv = m.res.Strs[ef.Str]
				}
				m.enqueue(ps, args, in.iid, false, 0, in.iid, rv)
				if rv != "" {
					in.waiting = &pendingCall{resultVar: rv, subPipe: ps.name}
				}
			} else {
				m.enqueue(ps, args, in.iid, false, 0, 0, "")
			}
		case vm.EffSpecSpawn:
			ps := m.pipeList[ef.A]
			ps.specTab.entries[ef.H] = specPending
			m.enqueue(ps, e.SpawnArgs[ef.ArgOff:ef.ArgOff+ef.ArgN], in.iid, true, ef.H, 0, "")
		}
	}
	if e.Died {
		m.removeInst(in)
	}
}
