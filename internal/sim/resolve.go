package sim

import (
	"reflect"
	"runtime"
	"sort"
	"sync"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/pdl/ast"
	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// design is what every machine of one design shares, all immutable once
// built: the name resolution both executors read (so the hot path never
// hashes strings), the per-pipe variable slot layout, and — compiled for
// the first vm machine — the bytecode Program. Every index space these
// bake in (slots, volatiles, memories, externs, functions, pipes, stage
// gids) is derived deterministically from declaration or sorted-name
// order, so one record serves any number of machines (bveq sweep
// points: N machines, one resolution and one decode).
type design struct {
	trs    []*core.Result // the translation the AST keys belong to, per pipe
	res    *vm.Resolution
	slotOf []map[string]int // per pipe: variable name → slot
	zeroes [][]V            // per pipe: per-slot typed zero (undriven reads)
	params [][]int          // per pipe: the slot of each parameter
	funcs  map[string]*ast.FuncDecl

	once sync.Once
	prog *vm.Program
}

// designCache holds the design records of every live *check.Info. The
// key is the Info's address, which does not keep the Info reachable, and
// a finalizer on the Info deletes the entry once the design is garbage.
// The address cannot be reused by a new Info before that delete: the
// finalizer keeps the Info's memory allocated until it has run. Records
// reference the AST and translations but never the Info, so they cannot
// keep their own key alive.
var designCache sync.Map // uintptr (*check.Info address) → *designSet

// designSet holds one record per translation map that machines of an
// Info were built from: the resolution keys on translated AST nodes, so
// a second core.TranslateProgram of the same Info is a different design.
type designSet struct {
	mu sync.Mutex
	ds []*design
}

// sharedDesign returns the design record for info and trs, resolving it
// on first use.
func sharedDesign(info *check.Info, trs map[string]*core.Result) *design {
	key := reflect.ValueOf(info).Pointer()
	v, ok := designCache.Load(key)
	if !ok {
		if v, ok = designCache.LoadOrStore(key, &designSet{}); !ok {
			runtime.SetFinalizer(info, func(*check.Info) { designCache.Delete(key) })
		}
	}
	set := v.(*designSet)
	set.mu.Lock()
	defer set.mu.Unlock()
next:
	for _, d := range set.ds {
		for i, pd := range info.Prog.Pipes {
			if d.trs[i] != trs[pd.Name] {
				continue next
			}
		}
		return d
	}
	d := resolveDesign(info, trs)
	set.ds = append(set.ds, d)
	return d
}

// resolver walks one pipeline's translated code, binding every name.
type resolver struct {
	res   *vm.Resolution
	mems  map[string]vm.MemRef
	vols  map[string]vm.Target
	vars  map[string]ast.Type // the pipeline's checked variables
	slots map[string]int
	pipe  string
}

func resolveDesign(info *check.Info, trs map[string]*core.Result) *design {
	prog := info.Prog
	r := &vm.Resolution{
		Idents:  make(map[*ast.Ident]vm.IdentBind),
		Reads:   make(map[*ast.MemRead]vm.MemRef),
		MemOps:  make(map[ast.Stmt]vm.MemRef),
		Targets: make(map[ast.Stmt]vm.Target),
		Fields:  make(map[*ast.FieldAccess]vm.FieldRef),
		Consts:  make(map[string]V, len(info.Consts)),
		Externs: make(map[string]vm.ExternRef, len(prog.Externs)),
		Pipes:   make(map[string]vm.PipeRef, len(prog.Pipes)),
		Unsized: make(map[string]bool),
	}
	d := &design{res: r, funcs: make(map[string]*ast.FuncDecl, len(prog.Funcs))}
	for name, c := range info.Consts {
		switch {
		case c.IsBool:
			r.Consts[name] = Scalar(val.Bool(c.Bool))
		case c.Width == 0:
			r.Consts[name] = Scalar(val.New(c.Value, 64))
			r.Unsized[name] = true
		default:
			r.Consts[name] = Scalar(val.New(c.Value, c.Width))
		}
	}
	for _, f := range prog.Funcs {
		d.funcs[f.Name] = f
	}
	for i, ed := range prog.Externs {
		r.Externs[ed.Name] = vm.ExternRef{Idx: i, ParamW: paramWidths(ed.Params), Site: siteKey(ed.Name)}
	}
	z := &resolver{res: r, mems: make(map[string]vm.MemRef), vols: make(map[string]vm.Target)}
	locked, plain := 0, 0 // memList / plainList indices, declaration order
	for _, md := range prog.Mems {
		ref := vm.MemRef{Lock: -1, Plain: -1, Depth: uint64(md.Depth), Width: md.Elem.Width}
		if md.Lock == ast.LockNone {
			ref.Plain, plain = plain, plain+1
		} else {
			ref.Lock, locked = locked, locked+1
		}
		z.mems[md.Name] = ref
	}
	for i, vd := range prog.Vols {
		z.vols[vd.Name] = vm.Target{Vol: i, W: vd.Elem.Width, Str: -1}
	}
	for i, pd := range prog.Pipes {
		r.Pipes[pd.Name] = vm.PipeRef{Idx: i, ParamW: paramWidths(trs[pd.Name].Pipe.Params)}
	}
	for _, pd := range prog.Pipes {
		// Every name the checker recorded gets a fixed slot in sorted
		// order, with the typed zero an undriven read observes.
		vars := info.Pipes[pd.Name].Vars
		names := make([]string, 0, len(vars))
		for name := range vars {
			names = append(names, name)
		}
		sort.Strings(names)
		z.slots = make(map[string]int, len(names))
		zeroes := make([]V, len(names))
		for i, name := range names {
			z.slots[name] = i
			zeroes[i] = zeroOfType(vars[name])
		}
		z.vars, z.pipe = vars, pd.Name
		d.trs = append(d.trs, trs[pd.Name])
		d.slotOf = append(d.slotOf, z.slots)
		d.zeroes = append(d.zeroes, zeroes)
		var params []int
		for _, p := range trs[pd.Name].Pipe.Params {
			params = append(params, z.slots[p.Name])
		}
		d.params = append(d.params, params)
		z.stmts(trs[pd.Name].Pipe.Body)
	}
	return d
}

func paramWidths(ps []ast.Param) []int {
	w := make([]int, len(ps))
	for i, p := range ps {
		w[i] = p.Type.BitWidth()
	}
	return w
}

func zeroOfType(t ast.Type) V {
	if t.Kind == ast.TRecord {
		rec := make(map[string]val.Value, len(t.Fields))
		for _, f := range t.Fields {
			rec[f.Name] = val.New(0, f.Type.BitWidth())
		}
		return Record(rec)
	}
	return Scalar(val.New(0, t.BitWidth()))
}

// intern indexes a spawn result-variable name in Resolution.Strs.
func (z *resolver) intern(s string) int32 {
	for i, x := range z.res.Strs {
		if x == s {
			return int32(i)
		}
	}
	z.res.Strs = append(z.res.Strs, s)
	return int32(len(z.res.Strs) - 1)
}

func (z *resolver) stmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		z.stmt(s)
	}
}

func (z *resolver) stmt(s ast.Stmt) {
	r := z.res
	switch n := s.(type) {
	case *ast.Assign:
		t, isVol := z.vols[n.Name]
		if !isVol {
			t = vm.Target{Slot: z.slots[n.Name], Vol: -1, Str: -1}
		}
		r.Targets[s] = t
		z.expr(n.RHS)
	case *ast.MemWrite:
		if ref, ok := z.mems[n.Mem]; ok {
			r.MemOps[s] = ref
		}
		z.expr(n.Index)
		z.expr(n.RHS)
	case *ast.VolWrite:
		r.Targets[s] = z.vols[n.Vol]
		z.expr(n.RHS)
	case *ast.If:
		z.expr(n.Cond)
		z.stmts(n.Then)
		z.stmts(n.Else)
	case *ast.Lock:
		r.MemOps[s] = z.mems[n.Mem]
		if n.Index != nil {
			z.expr(n.Index)
		}
	case *ast.Abort:
		r.MemOps[s] = z.mems[n.Mem]
	case *ast.Throw:
		z.exprs(n.Args)
	case *ast.Call:
		t := vm.Target{Vol: -1, Str: -1}
		if n.Pipe != z.pipe {
			t.Str = z.intern(n.Result)
		}
		r.Targets[s] = t
		z.exprs(n.Args)
	case *ast.SpecCall:
		r.Targets[s] = vm.Target{Slot: z.slots[n.Handle], Vol: -1, Str: -1}
		z.exprs(n.Args)
	case *ast.Verify:
		z.expr(n.Handle)
	case *ast.Invalidate:
		z.expr(n.Handle)
	case *ast.Return:
		z.expr(n.Value)
	case *ast.SetEArg:
		z.expr(n.Value)
	case *ast.GefGuard:
		z.stmts(n.Body)
	case *ast.LefBranch:
		z.stmts(n.Commit)
		z.stmts(n.Except)
	}
}

func (z *resolver) exprs(es []ast.Expr) {
	for _, e := range es {
		z.expr(e)
	}
}

func (z *resolver) expr(e ast.Expr) {
	r := z.res
	switch n := e.(type) {
	case *ast.Ident:
		if slot, ok := z.slots[n.Name]; ok {
			r.Idents[n] = vm.IdentBind{Kind: 0, Slot: slot}
		} else if c, ok := r.Consts[n.Name]; ok {
			r.Idents[n] = vm.IdentBind{Kind: 1, Con: c}
		} else if t, ok := z.vols[n.Name]; ok {
			r.Idents[n] = vm.IdentBind{Kind: 2, Vol: t.Vol}
		}
		// Unresolvable identifiers (checker rejects them in pipelines)
		// panic when executed, on either engine.
	case *ast.Unary:
		z.expr(n.X)
	case *ast.Binary:
		z.expr(n.L)
		z.expr(n.R)
	case *ast.Ternary:
		z.expr(n.Cond)
		z.expr(n.Then)
		z.expr(n.Else)
	case *ast.CallExpr:
		z.exprs(n.Args)
	case *ast.MemRead:
		if ref, ok := z.mems[n.Mem]; ok {
			r.Reads[n] = ref
		}
		z.expr(n.Index)
	case *ast.Slice:
		z.expr(n.X)
		z.expr(n.Hi)
		z.expr(n.Lo)
	case *ast.FieldAccess:
		r.Fields[n] = z.fieldRef(n)
		z.expr(n.X)
	}
}

// fieldRef resolves a record access against the canonical layout of the
// operand's checked type when that type is known (an Ident bound to a
// record variable); otherwise the access has no layout and reads by name
// at run time.
func (z *resolver) fieldRef(n *ast.FieldAccess) vm.FieldRef {
	ref := vm.FieldRef{Name: n.Field, Idx: -1}
	id, ok := n.X.(*ast.Ident)
	if !ok {
		return ref
	}
	t, ok := z.vars[id.Name]
	if !ok || t.Kind != ast.TRecord {
		return ref
	}
	names := make([]string, 0, len(t.Fields))
	for _, f := range t.Fields {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	for i, name := range names {
		if name == n.Field {
			return vm.FieldRef{Name: n.Field, Layout: vm.Layout(names), Idx: i}
		}
	}
	return ref
}
