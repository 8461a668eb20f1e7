package bveq

// The point shrinker: given a diverging (program, timing) point it
// greedily minimizes the program (drop trailing letters, splice out
// slots, neutralize slots) and then the timing (drop the interrupt,
// then move it earlier), re-running the point after every candidate and
// keeping steps that preserve *some* mismatch — the same monotonic
// greedy discipline as PR 7's design shrinker (designgen.Shrink), which
// handles the design axis for generated specs.

// shrinkBudget bounds point re-runs per shrink.
const shrinkBudget = 400

// ShrinkPoint minimizes a counterexample in place on a fixed target.
// The result still diverges (the property is re-checked after every
// step) and is flagged Shrunk.
func ShrinkPoint(t Target, bounds Bounds, ce *Counterexample) *Counterexample {
	b := bounds.withDefaults()
	runs := 0
	diverges := func(prog []uint32, intr int) bool {
		if runs >= shrinkBudget {
			return false
		}
		runs++
		return CheckPoint(t, prog, intr, b.Engine) != nil
	}

	prog := append([]uint32(nil), ce.Prog...)
	intr := ce.IntrCycle

	// Shortest diverging prefix.
	for len(prog) > 1 && diverges(prog[:len(prog)-1], intr) {
		prog = prog[:len(prog)-1]
	}
	// Splice out slots, then neutralize survivors, to fixpoint.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(prog) && len(prog) > 1; i++ {
			cand := append(append([]uint32(nil), prog[:i]...), prog[i+1:]...)
			if diverges(cand, intr) {
				prog, changed = cand, true
				i--
			}
		}
		for i := range prog {
			if prog[i] == t.Neutral() {
				continue
			}
			save := prog[i]
			prog[i] = t.Neutral()
			if diverges(prog, intr) {
				changed = true
			} else {
				prog[i] = save
			}
		}
	}
	// Timing: no interrupt at all, else the earliest diverging arrival.
	if intr >= 0 {
		if diverges(prog, -1) {
			intr = -1
		} else {
			for intr > 0 && diverges(prog, intr-1) {
				intr--
			}
		}
	}

	mm := CheckPoint(t, prog, intr, b.Engine)
	if mm == nil {
		// The budget ran dry mid-step and the final candidate passed;
		// fall back to the original, which is known to diverge.
		return ce
	}
	out := &Counterexample{
		Design: ce.Design, Point: ce.Point,
		Prog: prog, Asm: Disasm(t, prog),
		ExcSite: excSite(t, prog), IntrCycle: intr,
		Stage: mm.Stage, Detail: mm.Detail,
		DivergeIndex: mm.Index, DivergeCycle: mm.Cycle,
		Shrunk: true,
	}
	return out
}

// excSite locates the first exception letter in a (possibly spliced)
// program, -1 if none remains.
func excSite(t Target, prog []uint32) int {
	excs := map[uint32]bool{}
	for _, in := range t.ExcLetters() {
		excs[in.Word] = true
	}
	for i, w := range prog {
		if excs[w] {
			return i
		}
	}
	return -1
}
