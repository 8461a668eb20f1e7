// Package bveq is the bounded exhaustive equivalence gate: a static
// analysis pass that *proves* a compiled design precise within explicit
// bounds instead of stress-testing it. For a reduced-width micro-ISA
// projection of the design's instruction set it enumerates every
// program up to length K, crossed with every exception site and every
// interrupt-arrival cycle inside a bounded window (pulse timing is pure
// data — internal/fault.Schedule), runs each point through the
// translated IR, and requires the retirement trace and the final
// architectural state to match the sequential specification bit for
// bit. A clean sweep earns the design a machine-checkable
// "bounded-verified" badge; a mismatch becomes a first-class
// counterexample that is shrunk and rendered through internal/diag as
// an E-BVEQ-* error.
//
// Points of one design are independent: a small worker pool runs each
// point end to end — build, advance through the budget, check — over a
// single compiled program, so the bytecode image is built once and
// shared by every machine. The interpreter cross-checks a sampled
// subset of points against the primary engine, so the gate also guards
// the engines against each other.
//
// Everything is deterministic: enumeration order is fixed, point results
// are collected in point order regardless of worker scheduling, and the
// report's canonical JSON is byte-identical across runs and across
// engines.
package bveq

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xpdl/internal/sim"
)

// Inst is one letter of a target's projected alphabet: a fixed
// instruction word with its human-readable spelling.
type Inst struct {
	Word uint32
	Asm  string
}

// Target adapts one compiled design to the gate. A target is built
// once per design (compile once, build many machines — the vm program
// cache keys on the checked program identity) and must be safe for
// concurrent Build/Check calls from the sweep's workers.
type Target interface {
	// Name identifies the design in reports and diagnostics.
	Name() string
	// Alphabet is the projection's safe letters; ExcLetters are the
	// letters that can raise an exception (empty on designs without
	// exception machinery). The two sets must be disjoint.
	Alphabet() []Inst
	ExcLetters() []Inst
	// IntrCapable reports whether the design takes external interrupts,
	// enabling the interrupt-arrival axis.
	IntrCapable() bool
	// Neutral is a no-effect-preferred word the shrinker may substitute
	// for letters (it need not be a true no-op; candidates are re-run).
	Neutral() uint32
	// Build constructs a booted machine for one enumeration point:
	// prog are the slot words, intr the interrupt-arrival cycle (-1 =
	// none), engine the executor.
	Build(prog []uint32, intr int, engine string) (*sim.Machine, error)
	// Check replays the sequential specification against the machine
	// after its run. runErr is the run's terminal error (nil when the
	// budget elapsed without incident). It returns nil when the point
	// agrees with the specification.
	Check(prog []uint32, intr int, m *sim.Machine, runErr error) *Mismatch
}

// Mismatch is one point's disagreement with the sequential
// specification.
type Mismatch struct {
	// Stage classifies the divergence: "run" (the machine died —
	// deadlock, internal error), "trace" (retirement sequence differs),
	// "state" (final architectural state differs), "drain" (one side
	// finished and the other did not).
	Stage  string
	Detail string
	// Index/Cycle locate the first diverging retirement (-1 when the
	// divergence is not trace-positional).
	Index int
	Cycle int
}

func (mm *Mismatch) String() string {
	return fmt.Sprintf("%s: %s", mm.Stage, mm.Detail)
}

// Bounds parameterizes a sweep. The zero value selects every default.
type Bounds struct {
	K      int    // max program length in slots (default 3)
	Width  int    // immediate-domain width of the projection (default 2)
	Window int    // interrupt-arrival window in cycles (default 12)
	Engine string // primary executor (default "vm")
}

// Fixed sweep parameters: no caller tunes them.
const (
	// pointBudget is the per-point cycle budget.
	pointBudget = 384
	// spotEvery samples every Nth point onto the spot engine — the
	// interpreter, unless it is already primary — as a cross-engine
	// oracle.
	spotEvery = 16
	// maxCE caps recorded counterexamples.
	maxCE = 5
	// chunkSize is the number of points run between checks of the
	// counterexample cap, so a failing sweep stops enumerating early.
	chunkSize = 64
)

func (b Bounds) withDefaults() Bounds {
	if b.K <= 0 {
		b.K = 3
	}
	if b.Width <= 0 {
		b.Width = 2
	}
	if b.Window <= 0 {
		b.Window = 12
	}
	if b.Engine == "" {
		b.Engine = "vm"
	}
	return b
}

// spotEngine is the cross-check executor for a primary engine.
func spotEngine(primary string) string {
	if primary == "interp" {
		return "vm"
	}
	return "interp"
}

// Verify sweeps every enumeration point of the target within the
// bounds and returns the report. The error return is reserved for
// infrastructure failures (a machine that cannot even be built);
// behavioural disagreements are counterexamples in the report.
func Verify(t Target, bounds Bounds) (*Report, error) {
	b := bounds.withDefaults()
	rep := &Report{
		Design: t.Name(), K: b.K, Width: b.Width, Window: b.Window,
		Alphabet: len(t.Alphabet()), ExcLetters: len(t.ExcLetters()),
		Interrupts: t.IntrCapable(),
	}

	var chunk []PointDesc
	results := make([]pointResult, chunkSize)
	var infraErr error
	flush := func() {
		if len(chunk) == 0 || infraErr != nil {
			return
		}
		runChunk(t, b, chunk, results)
		for i, pd := range chunk {
			if err := results[i].buildErr; err != nil {
				infraErr = fmt.Errorf("bveq: build point %d: %w", pd.Index, err)
				return
			}
		}
		// Collect in point order: the report is independent of worker
		// interleaving.
		for i, pd := range chunk {
			if len(rep.Counterexamples) >= maxCE {
				break
			}
			r := &results[i]
			if r.mm != nil {
				rep.Counterexamples = append(rep.Counterexamples, newCounterexample(t, pd, r.mm))
				continue
			}
			if pd.Index%spotEvery == 0 {
				rep.SpotChecks++
				if r.spot != nil {
					rep.Counterexamples = append(rep.Counterexamples, newCounterexample(t, pd, r.spot))
				}
			}
		}
		chunk = chunk[:0]
	}

	rep.Programs, rep.Points = Enumerate(t, b, func(pd PointDesc) bool {
		chunk = append(chunk, pd)
		if len(chunk) == chunkSize {
			flush()
		}
		return infraErr == nil && len(rep.Counterexamples) < maxCE
	})
	flush()
	if infraErr != nil {
		return nil, infraErr
	}
	rep.Verified = len(rep.Counterexamples) == 0
	return rep, nil
}

// pointResult is one point's outcome: a build failure, the primary
// check's mismatch, or the spot check's (run only when the point is
// due and the primary check agreed).
type pointResult struct {
	buildErr error
	mm, spot *Mismatch
}

// runChunk runs every point of the chunk end to end on up to GOMAXPROCS
// workers, which claim points in order and write point i's outcome to
// res[i].
func runChunk(t Target, b Bounds, chunk []PointDesc, res []pointResult) {
	workers := min(runtime.GOMAXPROCS(0), len(chunk))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunk) {
					return
				}
				res[i] = runOne(t, b, chunk[i])
			}
		}()
	}
	wg.Wait()
}

// runOne builds, runs and checks one point, then spot-checks it when
// it is due and agreed with the specification.
func runOne(t Target, b Bounds, pd PointDesc) pointResult {
	m, runErr := runPoint(t, pd.Prog, pd.Intr, b.Engine)
	if m == nil {
		return pointResult{buildErr: runErr}
	}
	if mm := t.Check(pd.Prog, pd.Intr, m, runErr); mm != nil {
		return pointResult{mm: mm}
	}
	if pd.Index%spotEvery == 0 {
		return pointResult{spot: spotCheck(t, pd, b, m)}
	}
	return pointResult{}
}

// spotCheck reruns one point on the spot engine and requires both the
// sequential specification and the primary engine's observable run to
// agree with it.
func spotCheck(t Target, pd PointDesc, b Bounds, primary *sim.Machine) *Mismatch {
	m, runErr := runPoint(t, pd.Prog, pd.Intr, spotEngine(b.Engine))
	if m == nil {
		return &Mismatch{Stage: "engine", Detail: "spot engine machine build failed: " + runErr.Error(), Index: -1, Cycle: -1}
	}
	if mm := t.Check(pd.Prog, pd.Intr, m, runErr); mm != nil {
		mm.Stage = "engine"
		mm.Detail = spotEngine(b.Engine) + " spot check: " + mm.Detail
		return mm
	}
	if msg, idx, cyc := diffRuns(primary, m); msg != "" {
		return &Mismatch{Stage: "engine",
			Detail: fmt.Sprintf("%s vs %s: %s", b.Engine, spotEngine(b.Engine), msg),
			Index:  idx, Cycle: cyc}
	}
	return nil
}

// diffRuns compares two engines' observable runs of the same point:
// retirement-for-retirement (pc, exceptionality, throw arguments, cycle
// stamp) plus the drain status.
func diffRuns(a, b *sim.Machine) (msg string, index, cycle int) {
	ra, rb := a.Retired(), b.Retired()
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		x, y := ra[i], rb[i]
		same := x.Pipe == y.Pipe && x.Exceptional == y.Exceptional &&
			x.Cycle == y.Cycle && len(x.Args) == len(y.Args) && len(x.EArgs) == len(y.EArgs)
		if same {
			for j := range x.Args {
				if x.Args[j].Uint() != y.Args[j].Uint() {
					same = false
				}
			}
			for j := range x.EArgs {
				if x.EArgs[j].Uint() != y.EArgs[j].Uint() {
					same = false
				}
			}
		}
		if !same {
			return fmt.Sprintf("retirement %d differs (cycle %d vs %d)", i, x.Cycle, y.Cycle), i, x.Cycle
		}
	}
	if len(ra) != len(rb) {
		return fmt.Sprintf("trace lengths %d vs %d", len(ra), len(rb)), n, -1
	}
	if (a.InFlight() == 0) != (b.InFlight() == 0) {
		return fmt.Sprintf("drain status differs (%d vs %d in flight)", a.InFlight(), b.InFlight()), -1, -1
	}
	return "", -1, -1
}

// runPoint builds one point's machine and advances it through the full
// budget (Advance, not Run: devices keep acting after the pipeline
// drains, so an interrupt that arrives late is still taken).
func runPoint(t Target, prog []uint32, intr int, engine string) (*sim.Machine, error) {
	m, err := t.Build(prog, intr, engine)
	if err != nil {
		return nil, err
	}
	return m, m.Advance(pointBudget)
}

// CheckPoint runs a single enumeration point solo and returns its
// mismatch (nil when the point agrees). It is the shrinker's property
// and the CLI's recheck primitive; it observes exactly the semantics of
// a point in a sweep.
func CheckPoint(t Target, prog []uint32, intr int, engine string) *Mismatch {
	m, runErr := runPoint(t, prog, intr, engine)
	if m == nil {
		return &Mismatch{Stage: "run", Detail: "build: " + runErr.Error(), Index: -1, Cycle: -1}
	}
	return t.Check(prog, intr, m, runErr)
}
