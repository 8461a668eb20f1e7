package sim

import (
	"fmt"
	"strings"
	"testing"

	"xpdl/internal/check"
	"xpdl/internal/core"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/val"
)

// FuzzEngineExpr is the op-level differential target for the bytecode
// VM: the fuzz input drives a generator of well-typed expressions over
// operands of random widths — binary operators with register and
// immediate operands (sized and unsized, so mixed-width OpBinA
// adaptation is reached), shifts, slices, zero/sign extension,
// concatenation, the signed and full-width builtins, ternaries and
// calls to in-language functions. The expressions form one stage of a
// two-stage pipe; after the stage fires, every variable slot of the
// instruction must hold the same value on the vm as on the interp
// oracle (or both engines must fail with the same internal error).
//
// The committed corpus under testdata/fuzz/FuzzEngineExpr replays in
// every plain `go test`; `make fuzz-smoke` explores beyond it.
func FuzzEngineExpr(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		src, args := g.program()
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		info, err := check.Check(prog)
		if err != nil {
			t.Fatalf("generated program does not check: %v\n%s", err, src)
		}
		trs := core.TranslateProgram(info)
		var vars [2][]slotVal
		var errs [2]string
		for i, engine := range Engines() {
			m, err := New(info, trs, Config{Engine: engine})
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			if err := m.Start("p", args...); err != nil {
				t.Fatalf("%s: start: %v", engine, err)
			}
			if err := m.Step(); err != nil {
				errs[i] = err.Error()
				continue
			}
			in := m.pipes["p"].body[1].cur
			if in == nil {
				t.Fatalf("%s: the expression stage did not fire\n%s", engine, src)
			}
			vars[i] = in.vars
		}
		if errs[0] != errs[1] {
			t.Fatalf("engines disagree on failure:\n%s: %q\n%s: %q\n%s",
				Engines()[0], errs[0], Engines()[1], errs[1], src)
		}
		for s := range vars[0] {
			a, b := vars[0][s], vars[1][s]
			if a.OK != b.OK || a.V.Val != b.V.Val || a.V.Rec != nil || b.V.Rec != nil {
				t.Fatalf("slot %d differs: %s %v (ok=%v), %s %v (ok=%v)\n%s",
					s, Engines()[0], a.V.Val, a.OK, Engines()[1], b.V.Val, b.OK, src)
			}
		}
	})
}

// exprGen derives a program deterministically from the fuzz input; an
// exhausted input reads as zeros, so every input yields a program.
type exprGen struct {
	data  []byte
	pos   int
	vars  []operand // in scope for the expression being generated
	funcs []funcSig // callable from the expression being generated
}

type operand struct {
	name  string
	width int
}

type funcSig struct {
	name   string
	params []int
	result int
}

func (g *exprGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b)
}

func (g *exprGen) pick(n int) int { return g.next() % n }

// width draws an operand width, biased toward the widths designs use.
func (g *exprGen) width() int {
	common := []int{1, 5, 8, 16, 32, 64}
	if g.pick(3) == 0 {
		return 1 + g.pick(64)
	}
	return common[g.pick(len(common))]
}

// bits draws up to 64 bits of a constant or operand value.
func (g *exprGen) bits() uint64 {
	switch g.pick(4) {
	case 0:
		return uint64(g.pick(4)) // 0..3: zero divisors, small shifts
	case 1:
		return ^uint64(0) >> uint(g.pick(64)) // all-ones patterns
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.next())
	}
	return v
}

func mask(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

// program renders the design and the pipe's start arguments.
func (g *exprGen) program() (string, []val.Value) {
	var b strings.Builder
	fmt.Fprintf(&b, "const KU = %d;\n", g.bits())
	kw := g.width()
	fmt.Fprintf(&b, "const KS = %d'd%d;\n", kw, mask(g.bits(), kw))

	nf := g.pick(3)
	for i := 0; i < nf; i++ {
		sig := funcSig{name: fmt.Sprintf("f%d", i), result: g.width()}
		np := 1 + g.pick(2)
		params := make([]string, np)
		g.vars = g.vars[:0]
		for j := 0; j < np; j++ {
			w := g.width()
			sig.params = append(sig.params, w)
			params[j] = fmt.Sprintf("a%d: uint<%d>", j, w)
			g.vars = append(g.vars, operand{fmt.Sprintf("a%d", j), w})
		}
		fmt.Fprintf(&b, "func %s(%s) -> uint<%d> {\n", sig.name, strings.Join(params, ", "), sig.result)
		fmt.Fprintf(&b, "    t = %s;\n", g.expr(sig.result, 3))
		fmt.Fprintf(&b, "    u = %s;\n", g.expr(sig.result, 2))
		fmt.Fprintf(&b, "    if (%s) { t = u; }\n", g.boolExpr(2))
		b.WriteString("    return t;\n}\n")
		g.funcs = append(g.funcs, sig)
	}

	np := 1 + g.pick(3)
	params := make([]string, np)
	var args []val.Value
	g.vars = g.vars[:0]
	for j := 0; j < np; j++ {
		w := g.width()
		params[j] = fmt.Sprintf("x%d: uint<%d>", j, w)
		g.vars = append(g.vars, operand{fmt.Sprintf("x%d", j), w})
		args = append(args, val.New(g.bits(), w))
	}
	fmt.Fprintf(&b, "pipe p(%s)[] {\n", strings.Join(params, ", "))
	nr := 2 + g.pick(6)
	for j := 0; j < nr; j++ {
		w := g.width()
		name := fmt.Sprintf("r%d", j)
		op := "="
		if g.pick(2) == 0 {
			op = "<-"
		}
		fmt.Fprintf(&b, "    %s %s %s;\n", name, op, g.expr(w, 4))
		if op == "=" { // combinational results feed later expressions
			g.vars = append(g.vars, operand{name, w})
		}
	}
	b.WriteString("    ---\n    skip;\n}\n")
	return b.String(), args
}

// expr renders an expression of type uint<w>.
func (g *exprGen) expr(w, depth int) string {
	if depth <= 0 {
		return g.leaf(w)
	}
	d := depth - 1
	switch g.pick(12) {
	case 0, 1:
		return g.leaf(w)
	case 2, 3: // arithmetic and bitwise, register or immediate operands
		ops := []string{"+", "-", "*", "/", "%", "&", "|", "^"}
		op := ops[g.pick(len(ops))]
		switch g.pick(4) {
		case 0:
			return fmt.Sprintf("(%s %s %s)", g.expr(w, d), op, g.unsized())
		case 1:
			return fmt.Sprintf("(%s %s %s)", g.unsized(), op, g.expr(w, d))
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(w, d), op, g.expr(w, d))
	case 4: // shifts: the amount has its own width
		op := []string{"<<", ">>"}[g.pick(2)]
		if g.pick(2) == 0 {
			return fmt.Sprintf("(%s %s %d)", g.expr(w, d), op, g.pick(70))
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(w, d), op, g.expr(1+g.pick(8), d))
	case 5:
		return fmt.Sprintf("(%s%s)", []string{"~", "-"}[g.pick(2)], g.expr(w, d))
	case 6:
		return fmt.Sprintf("(%s ? %s : %s)", g.boolExpr(d), g.expr(w, d), g.expr(w, d))
	case 7: // slice of a wider value
		if w < 64 {
			src := w + g.pick(64-w+1)
			lo := g.pick(src - w + 1)
			return fmt.Sprintf("%s[%d:%d]", g.named(src, d), lo+w-1, lo)
		}
		return g.leaf(w)
	case 8: // extension (or truncation) of any width
		fn := []string{"ext", "sext"}[g.pick(2)]
		return fmt.Sprintf("%s(%s, %d)", fn, g.expr(g.width(), d), w)
	case 9: // concatenation
		if w >= 2 {
			hi := 1 + g.pick(w-1)
			lo := g.catPart(w-hi, d)
			return fmt.Sprintf("cat(%s, %s)", g.catPart(hi, d), lo)
		}
		return g.leaf(w)
	case 10: // builtins
		switch g.pick(4) {
		case 0:
			if w%2 == 0 {
				return fmt.Sprintf("mulfull(%s, %s)", g.expr(w/2, d), g.expr(w/2, d))
			}
			return fmt.Sprintf("mulfull(%s, %s)[%d:0]", g.expr(w, d), g.expr(w, d), w-1)
		case 1:
			return fmt.Sprintf("shra(%s, %s)", g.expr(w, d), g.expr(1+g.pick(8), d))
		}
		fn := []string{"divs", "rems"}[g.pick(2)]
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(w, d), g.expr(w, d))
	default: // in-language function call, adapted to width w
		if len(g.funcs) == 0 {
			return g.leaf(w)
		}
		f := g.funcs[g.pick(len(g.funcs))]
		args := make([]string, len(f.params))
		for i, pw := range f.params {
			args[i] = g.expr(pw, d)
		}
		call := fmt.Sprintf("%s(%s)", f.name, strings.Join(args, ", "))
		if f.result == w {
			return call
		}
		return fmt.Sprintf("ext(%s, %d)", call, w)
	}
}

// named renders a sliceable width-w operand: slices apply to names and
// parenthesized expressions alike.
func (g *exprGen) named(w, depth int) string {
	if g.pick(2) == 0 {
		for _, v := range g.vars {
			if v.width == w {
				return v.name
			}
		}
	}
	return "(" + g.expr(w, depth) + ")"
}

// catPart renders a sized concatenation operand of width w (a bool
// counts as one bit).
func (g *exprGen) catPart(w, depth int) string {
	if w == 1 && g.pick(2) == 0 {
		return g.boolExpr(depth)
	}
	return g.expr(w, depth)
}

// unsized renders an operand whose width adapts to its context: an
// unsized literal, the unsized constant, or a composition of them.
func (g *exprGen) unsized() string {
	switch g.pick(4) {
	case 0:
		return "KU"
	case 1:
		return fmt.Sprintf("(KU + %d)", g.pick(256))
	}
	return fmt.Sprintf("%d", g.bits())
}

// leaf renders an operand of exactly width w: a variable (sliced or
// extended to fit), the sized constant, or a sized literal.
func (g *exprGen) leaf(w int) string {
	switch g.pick(4) {
	case 0:
		return fmt.Sprintf("%d'd%d", w, mask(g.bits(), w))
	case 1:
		return fmt.Sprintf("ext(KS, %d)", w)
	}
	if len(g.vars) == 0 {
		return fmt.Sprintf("%d'd%d", w, mask(g.bits(), w))
	}
	v := g.vars[g.pick(len(g.vars))]
	switch {
	case v.width == w:
		return v.name
	case v.width > w:
		lo := g.pick(v.width - w + 1)
		return fmt.Sprintf("%s[%d:%d]", v.name, lo+w-1, lo)
	}
	return fmt.Sprintf("%s(%s, %d)", []string{"ext", "sext"}[g.pick(2)], v.name, w)
}

// boolExpr renders a bool-typed condition.
func (g *exprGen) boolExpr(depth int) string {
	d := depth - 1
	if depth <= 0 {
		return []string{"true", "false"}[g.pick(2)]
	}
	switch g.pick(6) {
	case 0, 1:
		w := g.width()
		op := []string{"==", "!=", "<", "<=", ">", ">="}[g.pick(6)]
		if g.pick(3) == 0 {
			return fmt.Sprintf("(%s %s %s)", g.expr(w, d), op, g.unsized())
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(w, d), op, g.expr(w, d))
	case 2:
		w := g.width()
		fn := []string{"lts", "les", "gts", "ges"}[g.pick(4)]
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(w, d), g.expr(w, d))
	case 3:
		return "!" + g.boolExpr(d)
	case 4:
		op := []string{"&&", "||"}[g.pick(2)]
		return fmt.Sprintf("(%s %s %s)", g.boolExpr(d), op, g.boolExpr(d))
	}
	return []string{"true", "false"}[g.pick(2)]
}
