// Command xpdlvet runs XPDL's static analyses — the error checks plus the
// whole-program lints (static lock-order deadlock detection, dead code,
// stage cost) — and reports structured diagnostics without compiling.
//
// Usage:
//
//	xpdlvet [-json] [-Werror] [-stage-budget ns] [file.xpdl ...]
//	xpdlvet -design base|fatal|trap|csr|all [flags]
//	xpdlvet -design all -bveq [-bveq-len K] [-bveq-width W] [-bveq-window C]
//	xpdlvet -bveq -bveq-spec spec.json [-bveq-corrupt abort-strip]
//
// Files may declare diagnostics they intentionally trigger with
// `// xpdlvet:expect CODE ...` comments; expected diagnostics are
// suppressed from the report, and expected codes that never fire are
// flagged so the annotations cannot go stale. DIAGNOSTICS.md lists every
// code.
//
// -bveq additionally runs the bounded exhaustive equivalence gate
// (internal/bveq) over each selected design: every program up to
// -bveq-len instructions in the design's micro-ISA projection, crossed
// with every exception site and every interrupt-arrival cycle inside
// -bveq-window, is executed on the translated design and compared
// bit-exactly against the sequential specification. A clean sweep stamps
// the design bounded-verified (reported in the JSON badge object); a
// divergence is shrunk and rendered as an E-BVEQ-* diagnostic. The gate
// applies to -design variants and to -bveq-spec (a designgen DesignSpec
// JSON file, as written by the fuzzer's repro bundles); plain .xpdl file
// arguments are vetted but not gated — the gate needs the design's ISA
// projection, which arbitrary sources do not carry.
//
// Exit status: 2 if any (unexpected) error was reported, 9 if the bveq
// gate found a counterexample, 1 if -Werror and any unexpected warning
// or unmet expectation remains, 0 otherwise. With -json, one JSON array
// of every diagnostic from every input is written to stdout — or, with
// -bveq, an object {"diagnostics": [...], "bounded_verified": [...]}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"xpdl/internal/bveq"
	"xpdl/internal/core"
	"xpdl/internal/designgen"
	"xpdl/internal/designs"
	"xpdl/internal/diag"
	"xpdl/internal/vet"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	werror := flag.Bool("Werror", false, "treat warnings as errors (exit 1)")
	budget := flag.Float64("stage-budget", 0, fmt.Sprintf("stage critical-path budget in ns (default %.1f)", vet.DefaultStageBudgetNS))
	design := flag.String("design", "", "vet built-in processor variants (base|fatal|trap|csr|all)")
	bveqOn := flag.Bool("bveq", false, "run the bounded exhaustive equivalence gate on selected designs")
	bveqLen := flag.Int("bveq-len", 3, "bveq: max program length in instructions")
	bveqWidth := flag.Int("bveq-width", 2, "bveq: immediate-domain width of the ISA projection")
	bveqWindow := flag.Int("bveq-window", 12, "bveq: interrupt-arrival window in cycles")
	bveqExec := flag.String("bveq-exec", "vm", "bveq: primary execution engine (vm|interp)")
	bveqSpec := flag.String("bveq-spec", "", "bveq: gate a generated design from a DesignSpec JSON file (implies -bveq)")
	bveqCorrupt := flag.String("bveq-corrupt", "", "bveq: apply a named seeded translation bug (gate self-test)")
	flag.Parse()

	type input struct{ name, src string }
	var inputs []input
	var variants []designs.Variant
	if *design != "" {
		found := false
		for _, v := range designs.Variants() {
			if *design == v.String() || *design == "all" {
				inputs = append(inputs, input{"design:" + v.String(), designs.Source(v)})
				variants = append(variants, v)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "xpdlvet: unknown design %q\n", *design)
			os.Exit(2)
		}
	}
	var specTarget bveq.Target
	var specName, specSrc string
	runBveq := *bveqOn || *bveqSpec != ""
	var corrupt func(map[string]*core.Result)
	if *bveqCorrupt != "" {
		corrupt = bveq.Corruptions[*bveqCorrupt]
		if corrupt == nil {
			fmt.Fprintf(os.Stderr, "xpdlvet: unknown corruption %q\n", *bveqCorrupt)
			os.Exit(2)
		}
	}
	if *bveqSpec != "" {
		raw, err := os.ReadFile(*bveqSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpdlvet:", err)
			os.Exit(2)
		}
		var d designgen.DesignSpec
		if err := json.Unmarshal(raw, &d); err != nil {
			fmt.Fprintf(os.Stderr, "xpdlvet: %s: %v\n", *bveqSpec, err)
			os.Exit(2)
		}
		d.Normalize()
		t, err := designgen.BveqTarget(&d, *bveqWidth, corrupt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpdlvet:", err)
			os.Exit(2)
		}
		specTarget, specName, specSrc = t, *bveqSpec, d.Source()
		inputs = append(inputs, input{*bveqSpec, specSrc})
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpdlvet:", err)
			os.Exit(2)
		}
		inputs = append(inputs, input{path, string(data)})
	}
	if len(inputs) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if runBveq && len(variants) == 0 && specTarget == nil {
		fmt.Fprintln(os.Stderr, "xpdlvet: -bveq needs -design and/or -bveq-spec (plain files carry no ISA projection)")
		os.Exit(2)
	}

	totalErrs, totalWarns := 0, 0
	var allDiags []diag.Diagnostic
	for _, in := range inputs {
		r := vet.Analyze(in.name, in.src, vet.Options{StageBudgetNS: *budget})
		allDiags = append(allDiags, r.Diags...)
		errs, warns := r.Counts()
		totalErrs += errs
		totalWarns += warns
		if *jsonOut {
			continue
		}
		rend := diag.NewRenderer(in.name, in.src)
		fmt.Fprint(os.Stderr, rend.RenderAll(r.Unexpected))
		for _, code := range r.Unmet {
			fmt.Fprintf(os.Stderr, "%s: expected diagnostic %s never fired; drop it from the xpdlvet:expect directive\n", in.name, code)
		}
		if n := len(r.Expected); n > 0 {
			fmt.Fprintf(os.Stderr, "xpdlvet: %s: %d expected diagnostic(s) suppressed\n", in.name, n)
		}
	}

	// The bounded gate runs only on statically clean designs: a design
	// the checker rejects has no translation to verify.
	counterexamples := 0
	var badges []bveq.Badge
	if runBveq && totalErrs == 0 {
		bounds := bveq.Bounds{K: *bveqLen, Width: *bveqWidth, Window: *bveqWindow, Engine: *bveqExec}
		type gated struct {
			t         bveq.Target
			name, src string
		}
		var targets []gated
		for _, v := range variants {
			t, err := bveq.NewVariantTarget(v, *bveqWidth, corrupt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xpdlvet:", err)
				os.Exit(2)
			}
			targets = append(targets, gated{t, "design:" + v.String(), designs.Source(v)})
		}
		if specTarget != nil {
			targets = append(targets, gated{specTarget, specName, specSrc})
		}
		for _, g := range targets {
			start := time.Now()
			rep, err := bveq.Verify(g.t, bounds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xpdlvet:", err)
				os.Exit(2)
			}
			if len(rep.Counterexamples) > 0 {
				rep.Counterexamples[0] = bveq.ShrinkPoint(g.t, bounds, rep.Counterexamples[0])
			}
			counterexamples += len(rep.Counterexamples)
			for _, ce := range rep.Counterexamples {
				allDiags = append(allDiags, ce.Diagnostic())
			}
			badges = append(badges, bveq.Badge{
				Report: *rep, Engine: *bveqExec,
				WallMS: time.Since(start).Milliseconds(),
			})
			if *jsonOut {
				continue
			}
			rend := diag.NewRenderer(g.name, g.src)
			for _, ce := range rep.Counterexamples {
				fmt.Fprint(os.Stderr, rend.RenderAll([]diag.Diagnostic{ce.Diagnostic()}))
			}
			if rep.Verified {
				fmt.Fprintf(os.Stderr, "xpdlvet: %s bounded-verified: %d programs, %d points (K=%d, window=%d, %dms)\n",
					g.name, rep.Programs, rep.Points, rep.K, rep.Window, badges[len(badges)-1].WallMS)
			} else {
				fmt.Fprintf(os.Stderr, "xpdlvet: %s NOT verified: %d counterexample(s) in %d points\n",
					g.name, len(rep.Counterexamples), rep.Points)
			}
		}
	}

	if *jsonOut {
		data, err := diag.ToJSON(allDiags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpdlvet:", err)
			os.Exit(2)
		}
		if runBveq {
			payload := struct {
				Diagnostics     json.RawMessage `json:"diagnostics"`
				BoundedVerified []bveq.Badge    `json:"bounded_verified"`
			}{Diagnostics: json.RawMessage(data), BoundedVerified: badges}
			out, err := json.MarshalIndent(payload, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "xpdlvet:", err)
				os.Exit(2)
			}
			os.Stdout.Write(append(out, '\n'))
		} else {
			os.Stdout.Write(data)
		}
	}

	switch {
	case totalErrs > 0:
		fmt.Fprintf(os.Stderr, "xpdlvet: %d error(s), %d warning(s)\n", totalErrs, totalWarns)
		os.Exit(2)
	case counterexamples > 0:
		fmt.Fprintf(os.Stderr, "xpdlvet: bveq: %d counterexample(s)\n", counterexamples)
		os.Exit(9)
	case totalWarns > 0:
		fmt.Fprintf(os.Stderr, "xpdlvet: %d warning(s)\n", totalWarns)
		if *werror {
			os.Exit(1)
		}
	}
}
