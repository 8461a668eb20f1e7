// The bytecode engine (Config.Engine "vm", the default): compiles the
// design to one shared vm.Program, wires the machine's struct-of-arrays
// state into a vm.Env, and runs a stage's statements through the
// dispatch loop. Everything around that — preconditions, write-back,
// effects through the machine's squash/spawn machinery, destination
// choice — is the firing protocol fire shares with the interp oracle,
// so the engines differ only in how a stage's statements execute, never
// in what a firing means.
package sim

import (
	"reflect"
	"runtime"
	"sync"

	"xpdl/internal/check"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/vm"
)

// vmProgCache shares one compiled Program per design: a Program is a
// pure function of the checked AST (every index space it bakes in —
// slots, volatiles, memories, externs, functions, pipes, stage gids —
// is derived deterministically from declaration or sorted-name order),
// so every machine built from the same *check.Info can run one image.
// This is what makes Batch lanes cheap: N machines, one decode.
//
// Entries live exactly as long as their design. The key is the Info's
// address, which does not keep the Info reachable, and a finalizer on
// the Info deletes the entry once the design is garbage. The address
// cannot be reused by a new Info before that delete: the finalizer
// keeps the Info's memory allocated until it has run. A Program holds
// no reference back to its Info, so it cannot keep its own key alive.
var vmProgCache sync.Map // uintptr (*check.Info address) → *vm.Program

// buildVM attaches the bytecode engine: the (possibly cached) Program
// plus this machine's dispatch environment.
func (m *Machine) buildVM() {
	key := reflect.ValueOf(m.info).Pointer()
	if p, ok := vmProgCache.Load(key); ok {
		m.vmProg = p.(*vm.Program)
	} else {
		p, loaded := vmProgCache.LoadOrStore(key, m.compileVMProgram())
		if !loaded {
			runtime.SetFinalizer(m.info, func(*check.Info) { vmProgCache.Delete(key) })
		}
		m.vmProg = p.(*vm.Program)
	}
	m.initVMEnv()
}

// compileVMProgram lowers the design to bytecode. The hooks close over
// this machine's resolution tables, but everything they hand the
// compiler is machine-independent (indices and widths), so the result
// is shareable.
func (m *Machine) compileVMProgram() *vm.Program {
	lockIdx := make(map[string]int, len(m.memOrder))
	for i, name := range m.memOrder {
		lockIdx[name] = i
	}
	plainIdx := make(map[string]int, len(m.plainList))
	for _, md := range m.info.Prog.Mems {
		if _, ok := m.plains[md.Name]; ok {
			plainIdx[md.Name] = len(plainIdx)
		}
	}
	extIdx := make(map[string]int, len(m.info.Prog.Externs))
	for i, ed := range m.info.Prog.Externs {
		extIdx[ed.Name] = i
	}

	memRef := func(b *memBinding) vm.MemRef {
		r := vm.MemRef{Lock: -1, Plain: -1, Depth: uint64(b.decl.Depth), Width: b.decl.Elem.Width}
		if b.plain != nil {
			r.Plain = plainIdx[b.decl.Name]
		} else {
			r.Lock = lockIdx[b.decl.Name]
		}
		return r
	}

	h := vm.Hooks{
		Ident: func(n *ast.Ident) (vm.IdentBind, bool) {
			b, ok := m.identBind[n]
			if !ok {
				return vm.IdentBind{}, false
			}
			switch b.kind {
			case 1:
				return vm.IdentBind{Kind: 1, Con: b.con}, true
			case 2:
				return vm.IdentBind{Kind: 2, Vol: b.vol.idx}, true
			}
			return vm.IdentBind{Kind: 0, Slot: b.slot}, true
		},
		Const: func(name string) (vm.V, bool) {
			c, ok := m.consts[name]
			return c, ok
		},
		AssignVol: func(s ast.Stmt) (int, int, bool) {
			vol, ok := m.assignVol[s]
			if !ok {
				return 0, 0, false
			}
			return vol.idx, vol.decl.Elem.Width, true
		},
		AssignSlot: func(s ast.Stmt) int { return m.assignSlot[s] },
		Vol: func(name string) (int, int) {
			reg := m.vols[name]
			return reg.idx, reg.decl.Elem.Width
		},
		MemW: func(s ast.Stmt) vm.MemRef { return memRef(m.memWBind[s]) },
		MemRead: func(n *ast.MemRead) (vm.MemRef, bool) {
			b, ok := m.memBind[n]
			if !ok {
				return vm.MemRef{}, false
			}
			return memRef(b), true
		},
		FieldIndex: func(n *ast.FieldAccess) int {
			if idx, ok := m.fieldIdx[n]; ok {
				return idx
			}
			return -1
		},
		IsUnsized: m.isUnsized,
		Extern: func(name string) (vm.ExternRef, bool) {
			i, ok := extIdx[name]
			if !ok {
				return vm.ExternRef{}, false
			}
			decl := m.info.Prog.Externs[i]
			pw := make([]int, len(decl.Params))
			for j, p := range decl.Params {
				pw[j] = p.Type.BitWidth()
			}
			return vm.ExternRef{Idx: i, ParamW: pw, Site: siteKey(name)}, true
		},
		Pipe: func(name string) vm.PipeRef {
			ps := m.pipes[name]
			pw := make([]int, len(ps.decl.Params))
			for j, p := range ps.decl.Params {
				pw[j] = p.Type.BitWidth()
			}
			return vm.PipeRef{Idx: ps.idx, ParamW: pw}
		},
	}

	nstages := 0
	for _, name := range m.pipeOrder {
		nstages += len(m.pipes[name].nodes)
	}
	c := vm.NewCompiler(h, nstages)
	c.CompileFuncs(m.funcs)
	for _, name := range m.pipeOrder {
		ps := m.pipes[name]
		selfW := make([]int, len(ps.decl.Params))
		for j, p := range ps.decl.Params {
			selfW[j] = p.Type.BitWidth()
		}
		tr := ps.res
		ctx := vm.StageCtx{
			PipeIdx: ps.idx, PipeName: ps.name,
			NSlots: len(ps.zeroes), SelfParamW: selfW,
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

// initVMEnv wires the dispatch environment to the machine's arenas and
// struct-of-arrays state. This happens once: the referenced slices are
// fully sized by New (scratch is grown in buildSlots, gefs/volVals in
// the declaration loops), and Restore mutates them in place.
func (m *Machine) initVMEnv() {
	e := &m.vmEnv
	e.Regs = make([]vm.V, m.vmProg.MaxStageRegs+64)
	e.Loc = m.scratch.local
	e.LocEp = m.scratch.localEpoch
	e.Pend = m.scratch.pend
	e.PendEp = m.scratch.pendEpoch
	e.Gefs = m.gefs
	e.Vols = m.volVals
	e.Mems = m.memList
	e.Plains = m.plainList
	exts := make([]vm.ExternFunc, len(m.info.Prog.Externs))
	for i, ed := range m.info.Prog.Externs {
		exts[i] = m.externs[ed.Name]
	}
	e.Externs = exts
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

// execVM runs a stage on the bytecode engine, leaving deferred effects
// in the dispatch environment for applyVMEffects. One
// engine-specific refinement: stages whose analysis proved no execution
// can stall at or after a lock mutation (StageProg.NeedsTxn) skip
// Begin/Commit entirely — a successful firing applies the same mutations
// either way, and a stalling one has nothing to roll back.
func (m *Machine) execVM(node *stageNode, in *inst) outcome {
	sp := &m.vmProg.Stages[node.gid]
	e := &m.vmEnv
	e.Epoch = m.scratch.epoch
	e.Vars = in.vars
	e.Zero = node.pipe.zeroes
	e.EArgs = in.eargs
	e.IID = in.iid
	e.Cycle = m.cycle
	e.PipeIdx = node.pipe.idx
	e.Lef = in.lef
	e.Spec = in.spec
	if in.spec {
		e.SpecStatus = uint8(node.pipe.specTab.status(in.specHandle))
	}
	e.Stalled, e.Died, e.WroteAny = false, false, false
	e.Effects = e.Effects[:0]
	e.SpawnArgs = e.SpawnArgs[:0]
	e.ExtArgs = e.ExtArgs[:0]
	for _, i := range e.SpawnDirty {
		e.SpawnCnt[i] = 0
	}
	e.SpawnDirty = e.SpawnDirty[:0]

	needsTxn := sp.NeedsTxn || (m.faults != nil && sp.NeedsTxnFaults)
	if needsTxn {
		for _, l := range m.memList {
			l.Begin()
		}
	}
	e.Exec(m.vmProg, sp)
	if e.Stalled {
		if needsTxn {
			for _, l := range m.memList {
				l.Rollback()
			}
		}
		return outcome{stalled: true}
	}
	if needsTxn {
		for _, l := range m.memList {
			l.Commit()
		}
	}
	return outcome{died: e.Died, wroteAny: e.WroteAny, exc: e.TookExc, lef: e.Lef, eargs: e.EArgs}
}

// applyVMEffects commits a vm firing's deferred mutations in program
// order, through the same machine entry points applyEffects uses. A
// death's instruction removal always comes last (the dispatch loop
// aborts at the dying instruction, so no later effects exist).
func (m *Machine) applyVMEffects(in *inst, e *vm.Env) {
	strs := m.vmProg.Strs
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
					rv = strs[ef.Str]
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
