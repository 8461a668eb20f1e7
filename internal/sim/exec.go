package sim

import (
	"fmt"

	"xpdl/internal/locks"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// firing is the AST interpreter's state for one attempt to execute a
// stage. It embeds the machine's vm.Env, so the interpreter records
// exactly what the vm's dispatch loop would — the effect log, spawn
// arguments and counts, and the outcome flags — for fire to commit the
// same way on both engines. The machine owns a single firing record
// (Machine.fr), reset per attempt; its node and in also identify the
// stage and instruction being fired for panic attribution (see
// Machine.Step), on both engines.
type firing struct {
	*vm.Env
	m    *Machine
	node *stageNode
	in   *inst

	funcEnv []map[string]V // scoped in-language function envs
}

// fire attempts to execute node's instruction for this cycle. It reports
// whether the pipeline made progress (the stage fired or the instruction
// died). The firing protocol — preconditions, lock transactions,
// write-back, effects, destination choice — is the same for both
// engines; they differ only in how a stage's statements execute.
func (m *Machine) fire(node *stageNode) bool {
	in := node.cur
	if in.waiting != nil {
		return false // blocked on a sub-pipeline call
	}
	if m.faults != nil && m.faults.StallStage(m.cycle, node.gid) {
		return false // injected structural stall: timing-only, no trace
	}
	// The output register must be free. For the fork stage the commit
	// tail must be free (the exception chain is free whenever gef is
	// clear, which the gef guard already enforces).
	if node.fork != nil {
		if node.fork.commitNext != nil && node.fork.commitNext.cur != nil {
			return false
		}
	} else if node.next != nil && node.next.cur != nil {
		return false
	}

	m.fr.node, m.fr.in = node, in // panic attribution (see Machine.Step)
	m.scratch.epoch++
	e := &m.env
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
	e.Stalled, e.Died = false, false
	e.Dirty = e.Dirty[:0]
	e.Effects = e.Effects[:0]
	e.SpawnArgs = e.SpawnArgs[:0]
	e.ExtArgs = e.ExtArgs[:0]
	for _, i := range e.SpawnDirty {
		e.SpawnCnt[i] = 0
	}
	e.SpawnDirty = e.SpawnDirty[:0]

	// The interpreter always runs inside lock transactions. The vm skips
	// them for stages whose analysis proved no execution can stall at or
	// after a lock mutation (StageProg.NeedsTxn): a successful firing
	// applies the same mutations either way, and a stalling one has
	// nothing to roll back.
	txn := true
	var sp *vm.StageProg
	if m.vmProg != nil {
		sp = &m.vmProg.Stages[node.gid]
		txn = sp.NeedsTxn || (m.faults != nil && sp.NeedsTxnFaults)
	}
	if txn {
		for _, l := range m.memList {
			l.Begin()
		}
	}
	if sp != nil {
		e.Exec(m.vmProg, sp)
	} else {
		m.fr.run(node)
	}
	if e.Stalled {
		if txn {
			for _, l := range m.memList {
				l.Rollback()
			}
		}
		return false
	}
	if txn {
		for _, l := range m.memList {
			l.Commit()
		}
	}

	// Apply buffered state: the slots this firing wrote (a latched write
	// wins over a combinational one), exception flags, then
	// machine-level effects in program order.
	sc := &m.scratch
	for _, slot := range e.Dirty {
		if sc.pendEpoch[slot] == sc.epoch {
			in.vars[slot] = slotVal{V: sc.pend[slot], OK: true}
		} else {
			in.vars[slot] = slotVal{V: sc.local[slot], OK: true}
		}
	}
	in.lef = e.Lef
	in.eargs = e.EArgs
	m.applyEffects(in)
	m.firings++

	if e.Died {
		if node.cur == in {
			node.cur = nil
		}
		if obs := m.cfg.Observer; obs != nil {
			obs.InstKilled(node.pipe.name, node.pos, -1)
		}
		return true
	}
	if obs := m.cfg.Observer; obs != nil {
		obs.StageFired(node.pipe.name, node.pos)
	}

	dest := node.next
	if node.fork != nil {
		dest = node.fork.commitNext
		if e.TookExc {
			dest = node.fork.excNext
		}
	}
	node.cur = nil
	if dest == nil {
		m.retire(in)
		return true
	}
	if dest.cur != nil {
		panic(fmt.Sprintf("sim: %s destination %s occupied by iid=%d", node.label(), dest.label(), dest.cur.iid))
	}
	dest.cur = in
	return true
}

// run executes a stage on the AST interpreter, like vm.Env.Exec: the
// main statements, then the fork arm the lef flag selects.
func (f *firing) run(node *stageNode) {
	f.funcEnv = f.funcEnv[:0]
	f.exec(node.stmts)
	if fork := node.fork; fork != nil && !f.Stalled && !f.Died {
		f.TookExc = f.Lef
		if f.Lef {
			f.exec(fork.excStage0)
		} else {
			f.exec(fork.commitStage0)
		}
	}
}

func (f *firing) stall() { f.Stalled = true }

func (f *firing) eff(e vm.Effect) { f.Effects = append(f.Effects, e) }

// getLocal reads back a combinational write from this firing.
func (f *firing) getLocal(slot int) (V, bool) {
	sc := &f.m.scratch
	if sc.localEpoch[slot] == sc.epoch {
		return sc.local[slot], true
	}
	return V{}, false
}

// addSpawn counts a spawn into pipe idx, so entry-queue capacity checks
// see this firing's own buffered spawns.
func (f *firing) addSpawn(idx int) {
	if f.SpawnCnt[idx] == 0 {
		f.SpawnDirty = append(f.SpawnDirty, idx)
	}
	f.SpawnCnt[idx]++
}

// ---------------------------------------------------------------------------
// Statement execution (AST interpreter; Config.Engine "interp"). The
// bytecode VM (vmexec.go) is the default — this walker is retained as the
// differential-testing oracle and must stay observably equivalent.

func (f *firing) exec(stmts []ast.Stmt) {
	for _, s := range stmts {
		if f.Stalled || f.Died {
			return
		}
		f.stmt(s)
	}
}

func (f *firing) stmt(s ast.Stmt) {
	m := f.m
	in := f.in
	pipe := int32(f.PipeIdx)
	switch n := s.(type) {
	case *ast.Skip:
	case *ast.GefGuard:
		if m.gefs[pipe] {
			f.stall()
			return
		}
		f.exec(n.Body)
	case *ast.Assign:
		t := m.res.Targets[s]
		if t.Vol >= 0 {
			f.volWrite(t, n.RHS)
			return
		}
		v := f.eval(n.RHS)
		if f.Stalled {
			return
		}
		if n.Latched {
			f.StorePend(t.Slot, v)
		} else {
			f.StoreLoc(t.Slot, v)
		}
	case *ast.MemWrite:
		ref := m.res.MemOps[s]
		addr := f.evalAddr(n.Index, ref.Depth)
		v := f.evalScalar(n.RHS, ref.Width)
		if f.Stalled {
			return
		}
		m.memList[ref.Lock].Write(in.iid, addr, v)
	case *ast.VolWrite:
		f.volWrite(m.res.Targets[s], n.RHS)
	case *ast.If:
		c := f.eval(n.Cond)
		if f.Stalled {
			return
		}
		if c.Val.IsTrue() {
			f.exec(n.Then)
		} else if n.Else != nil {
			f.exec(n.Else)
		}
	case *ast.Lock:
		f.lockOp(n)
	case *ast.SetLEF:
		f.Lef = true
	case *ast.SetEArg:
		tr := f.node.pipe.res
		width := tr.EArgs[n.Index].Type.BitWidth()
		v := f.evalScalar(n.Value, width)
		if f.Stalled {
			return
		}
		f.storeEArg(n.Index, v)
	case *ast.SetGEF:
		f.eff(vm.Effect{Kind: vm.EffSetGEF, A: pipe, Flag: n.Value})
	case *ast.PipeClear:
		f.eff(vm.Effect{Kind: vm.EffPipeClear, A: pipe})
	case *ast.SpecClear:
		f.eff(vm.Effect{Kind: vm.EffSpecClear, A: pipe})
	case *ast.Abort:
		m.memList[m.res.MemOps[s].Lock].Abort()
	case *ast.Call:
		f.call(n)
	case *ast.SpecCall:
		f.specCall(n)
	case *ast.Verify:
		h := f.eval(n.Handle).Uint()
		f.eff(vm.Effect{Kind: vm.EffVerify, A: pipe, H: h})
	case *ast.Invalidate:
		h := f.eval(n.Handle).Uint()
		f.eff(vm.Effect{Kind: vm.EffInvalidate, A: pipe, H: h})
	case *ast.SpecCheck, *ast.SpecBarrier:
		if !in.spec {
			return
		}
		switch f.node.pipe.specTab.status(in.specHandle) {
		case specPending:
			// Still speculative: a check keeps executing speculatively,
			// a barrier waits.
			if _, barrier := s.(*ast.SpecBarrier); barrier {
				f.stall()
			}
		case specVerified:
			f.eff(vm.Effect{Kind: vm.EffSpecResolve, A: pipe})
		case specInvalid:
			f.die()
		}
	case *ast.Return:
		v := f.eval(n.Value)
		if f.Stalled {
			return
		}
		f.eff(vm.Effect{Kind: vm.EffReturn, V: v})
	case *ast.Throw:
		panic("sim: untranslated throw reached the simulator")
	case *ast.StageSep:
		panic("sim: stage separator inside a stage")
	default:
		panic(fmt.Sprintf("sim: unhandled statement %T", s))
	}
}

// volWrite buffers a volatile register write.
func (f *firing) volWrite(t vm.Target, rhs ast.Expr) {
	v := f.evalScalar(rhs, t.W)
	if f.Stalled {
		return
	}
	f.eff(vm.Effect{Kind: vm.EffVolWrite, A: int32(t.Vol), Val: v})
}

// storeEArg captures one canonicalized except argument, copy-on-write:
// the instruction's slice is replaced only on a successful firing.
func (f *firing) storeEArg(index int, v val.Value) {
	for len(f.EArgs) <= index {
		f.EArgs = append(f.EArgs, val.Value{})
	}
	cp := append([]val.Value(nil), f.EArgs...)
	cp[index] = v
	f.EArgs = cp
}

// die squashes the executing instruction (misspeculation kill at a
// spec_check/spec_barrier). With this machine's eager invalidate —
// invalidate squashes the wrong-path instruction the moment it resolves,
// before the victim can fire another stage — these arms are defensive:
// they would matter under deferred squashing, where victims self-
// terminate at their next check point. The removal (applyEffects, after
// the log) squashes the instruction's lock reservations wholesale,
// covering anything staged earlier in this firing.
func (f *firing) die() { f.Died = true }

func (f *firing) lockOp(n *ast.Lock) {
	in := f.in
	ref := f.m.res.MemOps[n]
	l := f.m.memList[ref.Lock]
	addr := locks.Whole
	if n.Index != nil {
		addr = f.evalAddr(n.Index, ref.Depth)
		if f.Stalled {
			return
		}
	}
	switch n.Op {
	case ast.LockAcquire:
		if !l.CanReserve(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
			return
		}
		l.Reserve(in.iid, addr, n.Mode == ast.ModeWrite)
		if !l.Owns(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
		}
	case ast.LockReserve:
		if !l.CanReserve(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
			return
		}
		l.Reserve(in.iid, addr, n.Mode == ast.ModeWrite)
	case ast.LockBlock:
		if !l.Owns(in.iid, addr, n.Mode == ast.ModeWrite) {
			f.stall()
		}
	case ast.LockRelease:
		l.Release(in.iid, addr)
	}
}

// spawnArgs checks target's entry-queue capacity and evaluates the
// spawn arguments onto the spawn-argument arena, returning their offset;
// ok is false when the firing stalled.
func (f *firing) spawnArgs(target *pipeState, args []ast.Expr) (off int32, ok bool) {
	if len(target.entryQ)+f.SpawnCnt[target.idx] >= f.m.cfg.EntryCap {
		f.stall()
		return 0, false
	}
	off = int32(len(f.SpawnArgs))
	for i, a := range args {
		v := f.evalScalar(a, target.decl.Params[i].Type.BitWidth())
		if f.Stalled {
			return 0, false
		}
		f.SpawnArgs = append(f.SpawnArgs, v)
	}
	f.addSpawn(target.idx)
	return off, true
}

func (f *firing) call(n *ast.Call) {
	target := f.m.pipes[n.Pipe]
	off, ok := f.spawnArgs(target, n.Args)
	if !ok {
		return
	}
	// A call into another pipe blocks on its result (Flag).
	f.eff(vm.Effect{Kind: vm.EffSpawn, A: int32(target.idx), Flag: n.Pipe != f.in.pipe.name,
		ArgOff: off, ArgN: int32(len(n.Args)), Str: f.m.res.Targets[n].Str})
}

func (f *firing) specCall(n *ast.SpecCall) {
	ps := f.node.pipe
	off, ok := f.spawnArgs(ps, n.Args)
	if !ok {
		return
	}
	// Handle ids are consumed even if the firing later stalls; ids are
	// plentiful and stale pending entries are unreachable. The handle
	// value must be wide enough never to alias (48 bits outlives any
	// run); its hardware footprint is modeled separately (ast.THandle).
	h := ps.specTab.nextHandle
	ps.specTab.nextHandle++
	f.StoreLoc(f.m.res.Targets[n].Slot, Scalar(val.New(h, 48)))
	f.eff(vm.Effect{Kind: vm.EffSpecSpawn, A: int32(ps.idx), ArgOff: off, ArgN: int32(len(n.Args)), H: h})
}

// pipeClear implements the translated pipeclear: every instruction in the
// pipeline body (and the entry queue) dies, except the exceptional
// instruction performing the rollback.
func (m *Machine) pipeClear(ps *pipeState, self *inst) {
	for _, node := range ps.body {
		if node.cur != nil && node.cur != self {
			m.squash(node.cur.iid)
		}
	}
	for len(ps.entryQ) > 0 {
		m.squash(ps.entryQ[0].iid)
	}
}

// snapshotAlive returns the live instructions in a stable order. The
// returned slice is a reusable machine buffer, valid until the next call.
func (m *Machine) snapshotAlive() []*inst {
	out := m.snapBuf[:0]
	for _, in := range m.alive {
		out = append(out, in)
	}
	// Deterministic order (by iid) so squash cascades are reproducible.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].iid > out[j].iid; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	m.snapBuf = out
	return out
}

// ---------------------------------------------------------------------------
// Expression evaluation

// evalScalar evaluates and resizes to width bits.
func (f *firing) evalScalar(e ast.Expr, width int) val.Value {
	v := f.eval(e)
	if f.Stalled {
		return val.New(0, width)
	}
	return val.New(v.Uint(), width)
}

// evalAddr evaluates a memory index, masking to the memory's depth.
func (f *firing) evalAddr(e ast.Expr, depth uint64) uint64 {
	v := f.eval(e)
	if f.Stalled {
		return 0
	}
	return v.Uint() % depth
}

func (f *firing) eval(e ast.Expr) V {
	switch n := e.(type) {
	case *ast.IntLit:
		w := n.Width
		if w == 0 {
			w = 64
		}
		return Scalar(val.New(n.Value, w))
	case *ast.BoolLit:
		return Scalar(val.Bool(n.Value))
	case *ast.Ident:
		return f.lookup(n)
	case *ast.EArgRef:
		if n.Index < len(f.EArgs) {
			return Scalar(f.EArgs[n.Index])
		}
		return Scalar(val.New(0, 1))
	case *ast.LefRef:
		return Scalar(val.Bool(f.Lef))
	case *ast.GefRef:
		return Scalar(val.Bool(f.m.gefs[f.PipeIdx]))
	case *ast.Unary:
		x := f.eval(n.X)
		if f.Stalled {
			return x
		}
		switch n.Op {
		case ast.OpNot:
			return Scalar(val.Bool(!x.Val.IsTrue()))
		case ast.OpBNot:
			return Scalar(x.Val.Not())
		default:
			return Scalar(x.Val.Neg())
		}
	case *ast.Binary:
		return f.evalBinary(n)
	case *ast.Ternary:
		c := f.eval(n.Cond)
		if f.Stalled {
			return c
		}
		if c.Val.IsTrue() {
			return f.eval(n.Then)
		}
		return f.eval(n.Else)
	case *ast.CallExpr:
		return f.evalCall(n)
	case *ast.MemRead:
		return f.evalMemRead(n)
	case *ast.Slice:
		x := f.eval(n.X)
		hi := int(f.eval(n.Hi).Uint())
		lo := int(f.eval(n.Lo).Uint())
		if f.Stalled {
			return x
		}
		return Scalar(x.Val.Slice(hi, lo))
	case *ast.FieldAccess:
		x := f.eval(n.X)
		if f.Stalled {
			return x
		}
		if x.Rec == nil {
			panic(fmt.Sprintf("sim: field access .%s on scalar", n.Field))
		}
		fv, ok := x.Rec.Field(n.Field)
		if !ok {
			panic(fmt.Sprintf("sim: record has no field %q", n.Field))
		}
		return Scalar(fv)
	}
	panic(fmt.Sprintf("sim: unhandled expression %T", e))
}

func (f *firing) lookup(n *ast.Ident) V {
	// Function-local environments shadow everything when active (only
	// in-language function bodies run with one; their identifiers are
	// not pre-resolved).
	if len(f.funcEnv) > 0 {
		env := f.funcEnv[len(f.funcEnv)-1]
		if v, ok := env[n.Name]; ok {
			return v
		}
		if c, ok := f.m.res.Consts[n.Name]; ok {
			return c
		}
		panic(fmt.Sprintf("sim: function references unknown name %q", n.Name))
	}
	b, ok := f.m.res.Idents[n]
	if !ok {
		panic(fmt.Sprintf("sim: unresolved name %q in pipe %s", n.Name, f.in.pipe.name))
	}
	switch b.Kind {
	case 1:
		return b.Con
	case 2:
		return Scalar(f.m.volVals[b.Vol])
	}
	if v, ok := f.getLocal(b.Slot); ok {
		return v
	}
	if sv := f.in.vars[b.Slot]; sv.OK {
		return sv.V
	}
	// A variable defined only on an untaken conditional path reads as a
	// zero of its checked type (hardware: an undriven mux input).
	return f.in.pipe.zeroes[b.Slot]
}

func (f *firing) evalBinary(n *ast.Binary) V {
	l := f.eval(n.L)
	if f.Stalled {
		return l
	}
	r := f.eval(n.R)
	if f.Stalled {
		return r
	}
	lv, rv := l.Val, r.Val
	if lv.Width() != rv.Width() && n.Op != ast.OpShl && n.Op != ast.OpShr {
		switch {
		case f.m.res.IsUnsized(n.L):
			lv = val.New(lv.Uint(), rv.Width())
		case f.m.res.IsUnsized(n.R):
			rv = val.New(rv.Uint(), lv.Width())
		}
	}
	return Scalar(binOp(n.Op, lv, rv))
}

// binOp applies one binary operator.
func binOp(op ast.BinOp, lv, rv val.Value) val.Value {
	switch op {
	case ast.OpAdd:
		return lv.Add(rv)
	case ast.OpSub:
		return lv.Sub(rv)
	case ast.OpMul:
		return lv.Mul(rv)
	case ast.OpDiv:
		return lv.DivU(rv)
	case ast.OpMod:
		return lv.RemU(rv)
	case ast.OpAnd:
		return lv.And(rv)
	case ast.OpOr:
		return lv.Or(rv)
	case ast.OpXor:
		return lv.Xor(rv)
	case ast.OpShl:
		return lv.Shl(rv)
	case ast.OpShr:
		return lv.ShrU(rv)
	case ast.OpLAnd:
		return val.Bool(lv.IsTrue() && rv.IsTrue())
	case ast.OpLOr:
		return val.Bool(lv.IsTrue() || rv.IsTrue())
	case ast.OpEq:
		return lv.EqV(rv)
	case ast.OpNe:
		return lv.NeV(rv)
	case ast.OpLt:
		return lv.LtU(rv)
	case ast.OpLe:
		return lv.LeU(rv)
	case ast.OpGt:
		return lv.GtU(rv)
	case ast.OpGe:
		return lv.GeU(rv)
	}
	panic("sim: unhandled binary operator")
}

func (f *firing) evalCall(n *ast.CallExpr) V {
	// Builtins.
	switch n.Name {
	case "ext":
		x := f.eval(n.Args[0])
		w := int(f.eval(n.Args[1]).Uint())
		if f.Stalled {
			return x
		}
		return Scalar(x.Val.ZeroExt(w))
	case "sext":
		x := f.eval(n.Args[0])
		w := int(f.eval(n.Args[1]).Uint())
		if f.Stalled {
			return x
		}
		return Scalar(x.Val.SignExt(w))
	case "cat":
		parts := make([]val.Value, len(n.Args))
		for i, a := range n.Args {
			parts[i] = f.eval(a).Val
			if f.Stalled {
				return Scalar(parts[i])
			}
		}
		return Scalar(val.Cat(parts...))
	case "lts", "les", "gts", "ges":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.Stalled {
			return a
		}
		av, bv := a.Val, b.Val
		switch n.Name {
		case "lts":
			return Scalar(av.LtS(bv))
		case "les":
			return Scalar(av.LeS(bv))
		case "gts":
			return Scalar(av.GtS(bv))
		default:
			return Scalar(av.GeS(bv))
		}
	case "shra":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.Stalled {
			return a
		}
		return Scalar(a.Val.ShrS(b.Val))
	case "divs":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.Stalled {
			return a
		}
		return Scalar(a.Val.DivS(b.Val))
	case "rems":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.Stalled {
			return a
		}
		return Scalar(a.Val.RemS(b.Val))
	case "mulfull":
		a := f.eval(n.Args[0])
		b := f.eval(n.Args[1])
		if f.Stalled {
			return a
		}
		return Scalar(a.Val.MulFull(b.Val))
	}

	// Extern.
	if ref, ok := f.m.res.Externs[n.Name]; ok {
		if f.m.faults != nil && f.m.faults.DelayExtern(f.m.cycle, f.in.iid, ref.Site) {
			f.stall()
			return Scalar(val.New(0, 1))
		}
		args := make([]val.Value, len(n.Args))
		for i, a := range n.Args {
			args[i] = f.evalScalar(a, ref.ParamW[i])
			if f.Stalled {
				return Scalar(args[i])
			}
		}
		return f.Externs[ref.Idx](args)
	}

	// In-language function.
	fn := f.m.funcs[n.Name]
	if fn == nil {
		panic(fmt.Sprintf("sim: call to unknown function %q", n.Name))
	}
	args := make([]V, len(n.Args))
	for i, a := range n.Args {
		v := f.eval(a)
		if f.Stalled {
			return v
		}
		args[i] = Scalar(val.New(v.Uint(), fn.Params[i].Type.BitWidth()))
	}
	return f.callFunc(fn, args)
}

// callFunc interprets an in-language combinational function.
func (f *firing) callFunc(fn *ast.FuncDecl, args []V) V {
	env := make(map[string]V, len(fn.Params)+4)
	for i, p := range fn.Params {
		env[p.Name] = args[i]
	}
	f.funcEnv = append(f.funcEnv, env)
	defer func() { f.funcEnv = f.funcEnv[:len(f.funcEnv)-1] }()

	var ret V
	returned := false
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			if returned {
				return
			}
			switch n := s.(type) {
			case *ast.Assign:
				env[n.Name] = f.eval(n.RHS)
			case *ast.If:
				if f.eval(n.Cond).Val.IsTrue() {
					walk(n.Then)
				} else if n.Else != nil {
					walk(n.Else)
				}
			case *ast.Return:
				ret = Scalar(val.New(f.eval(n.Value).Uint(), fn.Result.BitWidth()))
				returned = true
			case *ast.Skip:
			default:
				panic(fmt.Sprintf("sim: statement %T in function %s", s, fn.Name))
			}
		}
	}
	walk(fn.Body)
	if !returned {
		// Conditional fallthrough: the declared result's zero value.
		ret = Scalar(val.New(0, fn.Result.BitWidth()))
	}
	return ret
}

func (f *firing) evalMemRead(n *ast.MemRead) V {
	ref := f.m.res.Reads[n]
	addr := f.evalAddr(n.Index, ref.Depth)
	if f.Stalled {
		return Scalar(val.New(0, ref.Width))
	}
	if ref.Plain >= 0 {
		return Scalar(f.m.plainList[ref.Plain].Peek(addr))
	}
	l := f.m.memList[ref.Lock]
	if !l.ReadReady(f.in.iid, addr) {
		f.stall()
		return Scalar(val.New(0, ref.Width))
	}
	return Scalar(l.Read(f.in.iid, addr))
}
