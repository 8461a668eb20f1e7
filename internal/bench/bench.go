// Package bench regenerates the paper's evaluation artifacts (§4): the
// area figure (Fig. 12), the lines-of-code figure (Fig. 13), the CPI
// comparison, the maximum-frequency comparison and the compilation-time
// measurements, plus the Table 1 taxonomy demonstrations.
//
// Every experiment returns structured data and renders the same rows the
// paper reports; see EXPERIMENTS.md for the measured-vs-paper record.
package bench

import (
	"fmt"
	"strings"
	"time"

	"xpdl"
	"xpdl/internal/check"
	"xpdl/internal/designs"
	"xpdl/internal/ir"
	"xpdl/internal/pdl/parser"
	"xpdl/internal/sim"
	"xpdl/internal/synth"
	"xpdl/internal/workloads"
)

// AreaRow is one bar of Figure 12.
type AreaRow struct {
	Variant designs.Variant
	Area    synth.Area
}

// Fig12 computes the area model for every processor variant.
func Fig12() ([]AreaRow, error) {
	var rows []AreaRow
	for _, v := range designs.Variants() {
		d, err := xpdl.Compile(designs.Source(v))
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", v, err)
		}
		low := ir.Lower(d.Info, d.Translations)
		rows = append(rows, AreaRow{Variant: v, Area: synth.AreaOf(low, synth.ASIC45())})
	}
	return rows, nil
}

// Fig12String renders the area table.
func Fig12String(rows []AreaRow) string {
	var b strings.Builder
	b.WriteString("Figure 12 — Area of processor implementations (µm², 45 nm model)\n")
	b.WriteString("variant   rf+csr   stage-regs   comb     total    Δ vs base\n")
	base := rows[0].Area.Total()
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %7.0f  %9.0f  %8.0f  %8.0f  %+7.0f\n",
			r.Variant, r.Area.RegFileCSR, r.Area.StageRegs, r.Area.Comb,
			r.Area.Total(), r.Area.Total()-base)
	}
	return b.String()
}

// LOCRow is one bar of Figure 13.
type LOCRow struct {
	Variant designs.Variant
	LOC     designs.LOC
}

// Fig13 counts the per-region source lines of every variant.
func Fig13() []LOCRow {
	var rows []LOCRow
	for _, v := range designs.Variants() {
		rows = append(rows, LOCRow{Variant: v, LOC: designs.CountLOC(v)})
	}
	return rows
}

// Fig13String renders the LOC table.
func Fig13String(rows []LOCRow) string {
	var b strings.Builder
	b.WriteString("Figure 13 — #LOC of XPDL processor implementations\n")
	b.WriteString("variant   body+modules   commit   except   total\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %12d  %7d  %7d  %6d\n",
			r.Variant, r.LOC.BodyAndModules, r.LOC.Commit, r.LOC.Except, r.LOC.Total())
	}
	return b.String()
}

// CPICell is one workload × variant measurement.
type CPICell struct {
	Workload string
	Variant  designs.Variant
	Cycles   int
	Insns    int
	CPI      float64
}

// CPITable runs every workload on every variant (§4.2: processors that
// implement exceptions must not have worse CPI when none occur), on the
// default (vm) executor.
func CPITable(kernels []workloads.Workload) ([]CPICell, error) {
	return CPITableEngine(kernels, "")
}

// CPITableEngine is CPITable on a selectable executor ("" = default);
// CPI is executor-independent by construction, so this mainly times the
// engines against each other on the full evaluation matrix.
func CPITableEngine(kernels []workloads.Workload, engine string) ([]CPICell, error) {
	var cells []CPICell
	for _, w := range kernels {
		prog, err := w.Assemble()
		if err != nil {
			return nil, err
		}
		for _, v := range designs.Variants() {
			p, err := designs.BuildCfg(v, sim.Config{Engine: engine})
			if err != nil {
				return nil, err
			}
			if err := p.Load(prog); err != nil {
				return nil, err
			}
			if err := p.Boot(); err != nil {
				return nil, err
			}
			if _, err := p.Run(w.MaxSteps * 8); err != nil {
				return nil, fmt.Errorf("bench: %s on %s: %w", w.Name, v, err)
			}
			if p.M.InFlight() != 0 {
				return nil, fmt.Errorf("bench: %s on %s did not drain", w.Name, v)
			}
			cells = append(cells, CPICell{
				Workload: w.Name, Variant: v,
				Cycles: p.M.Cycle(), Insns: len(p.Retired()), CPI: p.CPI(),
			})
		}
	}
	return cells, nil
}

// CPIString renders the CPI matrix.
func CPIString(cells []CPICell) string {
	var b strings.Builder
	b.WriteString("CPI — all variants, exception-free workloads (§4.2)\n")
	b.WriteString("workload  ")
	for _, v := range designs.Variants() {
		fmt.Fprintf(&b, "%8s", v.String())
	}
	b.WriteString("   insns\n")
	byW := map[string][]CPICell{}
	var order []string
	for _, c := range cells {
		if len(byW[c.Workload]) == 0 {
			order = append(order, c.Workload)
		}
		byW[c.Workload] = append(byW[c.Workload], c)
	}
	for _, w := range order {
		fmt.Fprintf(&b, "%-9s ", w)
		for _, c := range byW[w] {
			fmt.Fprintf(&b, "%8.3f", c.CPI)
		}
		fmt.Fprintf(&b, "  %6d\n", byW[w][0].Insns)
	}
	return b.String()
}

// FMaxRow is one variant's timing estimate.
type FMaxRow struct {
	Variant    designs.Variant
	ASICMHz    float64
	FPGAMHz    float64
	Critical   string
	CriticalNS float64
}

// FMax computes the frequency model for every variant.
func FMax() ([]FMaxRow, error) {
	var rows []FMaxRow
	for _, v := range designs.Variants() {
		d, err := xpdl.Compile(designs.Source(v))
		if err != nil {
			return nil, err
		}
		low := ir.Lower(d.Info, d.Translations)
		asic := synth.TimingOf(low, synth.ASIC45())
		fpga := synth.TimingOf(low, synth.FPGA())
		rows = append(rows, FMaxRow{
			Variant: v, ASICMHz: asic.FMaxMHz(), FPGAMHz: fpga.FMaxMHz(),
			Critical: asic.Critical, CriticalNS: asic.CriticalNS,
		})
	}
	return rows, nil
}

// FMaxString renders the frequency table.
func FMaxString(rows []FMaxRow) string {
	var b strings.Builder
	b.WriteString("Maximum frequency (§4.2; paper: 169.49 -> 163.93 MHz, -3.3%)\n")
	b.WriteString("variant   asic MHz   Δ%      fpga MHz   critical path\n")
	base := rows[0].ASICMHz
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %8.2f  %+5.2f   %8.2f   %s (%.3f ns)\n",
			r.Variant, r.ASICMHz, (r.ASICMHz-base)/base*100, r.FPGAMHz, r.Critical, r.CriticalNS)
	}
	return b.String()
}

// CompileRow measures the two compilation phases of one variant
// (front end + checking, then translation + lowering + Verilog) — the
// analogue of the paper's XPDL→Bluespec and Bluespec→Verilog split.
type CompileRow struct {
	Variant      designs.Variant
	FrontEnd     time.Duration
	BackEnd      time.Duration
	Total        time.Duration
	VerilogBytes int
}

// CompileTimes measures end-to-end compile time per variant, averaging
// over rounds.
func CompileTimes(rounds int) ([]CompileRow, error) {
	if rounds < 1 {
		rounds = 1
	}
	var rows []CompileRow
	for _, v := range designs.Variants() {
		src := designs.Source(v)
		var fe, be time.Duration
		var vlen int
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			prog, err := parser.Parse(src)
			if err != nil {
				return nil, err
			}
			info, err := check.Check(prog)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			d, err := xpdl.Compile(src) // translation re-runs parse+check; keep phase 2 honest:
			_ = d
			if err != nil {
				return nil, err
			}
			trs := d.Translations
			low := ir.Lower(d.Info, trs)
			_ = synth.AreaOf(low, synth.ASIC45())
			vtext := synth.Verilog(d.Info, trs)
			t2 := time.Now()
			fe += t1.Sub(t0)
			be += t2.Sub(t1)
			vlen = len(vtext)
			_ = info
		}
		rows = append(rows, CompileRow{
			Variant:      v,
			FrontEnd:     fe / time.Duration(rounds),
			BackEnd:      be / time.Duration(rounds),
			Total:        (fe + be) / time.Duration(rounds),
			VerilogBytes: vlen,
		})
	}
	return rows, nil
}

// CompileString renders the compile-time table.
func CompileString(rows []CompileRow) string {
	var b strings.Builder
	b.WriteString("Compilation time (§4.2; paper: 15.34 s base, 15.50 s all, two phases)\n")
	b.WriteString("variant   front end   back end   total     verilog bytes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s  %9s  %9s  %8s  %10d\n",
			r.Variant, r.FrontEnd.Round(time.Microsecond), r.BackEnd.Round(time.Microsecond),
			r.Total.Round(time.Microsecond), r.VerilogBytes)
	}
	return b.String()
}
