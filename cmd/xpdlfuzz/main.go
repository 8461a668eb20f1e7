// Command xpdlfuzz runs a design-space fuzzing campaign: it generates
// random well-formed XPDL pipeline designs (varying stage count, lock
// substrates, speculation, exception handling, volatiles, interrupts,
// extern units), pairs each with a random machine program biased toward
// exception and interrupt collisions, and drives every pair through the
// full verification gauntlet — parse, semantic check, translation, and
// differential execution of both engines against the sequential
// golden model, with chaos timing faults, mid-run save/restore, RTL
// cosimulation, and rule-breaking checker mutants sampled in on fixed
// iteration residues.
//
// Usage:
//
//	xpdlfuzz [-n N] [-seed S] [-shrink] [-out dir] [-q]
//
// -n is the iteration count (default 500) and -seed the campaign seed
// (default 1); a campaign is a pure function of the pair, so the same
// flags always explore the same designs. -shrink minimizes any
// counterexample to a smallest still-diverging (design, program) pair
// before reporting; -out writes each finding as a self-contained repro
// bundle (design.xpdl, program.hex, repro.json). -q suppresses the
// per-finding progress lines.
//
// -corpus dir writes the first -n generated design sources into dir in
// Go's file-based fuzz corpus format and exits — used by `make
// fuzz-corpus` to seed the FuzzParse and FuzzCheck targets with
// realistic whole-pipeline inputs.
//
// -bveq additionally pushes every design that survives the gauntlet
// through the bounded exhaustive equivalence gate (internal/bveq):
// every program up to -bveq-len instructions in the design's micro-ISA
// projection, crossed with exception sites and interrupt arrival
// cycles, compared bit-exactly against the sequential oracle. Gate
// counterexamples are findings like any other.
//
// The campaign summary is printed to stdout as JSON.
//
// Exit codes: 0 clean campaign, 2 usage, 8 counterexample found (codes
// 1–7 mirror xpdlsim and are left unused here so scripts can share a
// single exit-code table).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xpdl/internal/designgen"
)

const (
	exitUsage          = 2
	exitCounterexample = 8
)

func main() {
	n := flag.Int("n", 500, "campaign iterations")
	seed := flag.Uint64("seed", 1, "campaign seed")
	shrink := flag.Bool("shrink", false, "minimize counterexamples before reporting")
	out := flag.String("out", "", "write repro bundles into this directory")
	quiet := flag.Bool("q", false, "suppress progress lines on stderr")
	corpus := flag.String("corpus", "", "write -n design sources into this directory as a Go fuzz seed corpus, then exit")
	bveqOn := flag.Bool("bveq", false, "gate surviving designs with the bounded exhaustive equivalence sweep")
	bveqLen := flag.Int("bveq-len", 2, "bveq: max program length in instructions")
	flag.Parse()
	if *n <= 0 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(exitUsage)
	}

	if *corpus != "" {
		if err := designgen.WriteGoFuzzCorpus(*corpus, *n, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "xpdlfuzz:", err)
			os.Exit(1)
		}
		return
	}

	opts := designgen.CampaignOpts{
		N:       *n,
		Seed:    *seed,
		Shrink:  *shrink,
		OutDir:  *out,
		Bveq:    *bveqOn,
		BveqLen: *bveqLen,
	}
	if !*quiet {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	sum := designgen.RunCampaign(opts)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "xpdlfuzz:", err)
		os.Exit(1)
	}
	if len(sum.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "xpdlfuzz: %d finding(s) in %d iterations\n", len(sum.Findings), sum.N)
		os.Exit(exitCounterexample)
	}
}
