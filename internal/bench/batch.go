package bench

import (
	"fmt"
	"strings"
	"time"

	"xpdl/internal/designs"
	"xpdl/internal/sim"
	"xpdl/internal/vm"
	"xpdl/internal/workloads"
)

// BatchRow summarizes one lockstep batch measurement: N lanes of the
// same design (one per workload kernel) advanced to a common cycle
// horizon, sequentially on the vm engine (one Advance per lane) versus
// under vm.Batch with the shared bytecode image. Aggregate throughput
// counts machine-cycles across all lanes; lanes that drain early have
// idle tails up to the horizon, which both drivers fast-forward in O(1),
// so the row isolates what lockstep batching itself adds.
type BatchRow struct {
	Lanes     int
	Horizon   int
	SeqWall   time.Duration
	BatchWall time.Duration
	SeqMCPS   float64 // aggregate machine-cycles/s, millions
	BatchMCPS float64
	Speedup   float64
}

// batchLanes builds one booted lane per kernel on the given engine.
func batchLanes(kernels []workloads.Workload, engine string) ([]*designs.Processor, error) {
	lanes := make([]*designs.Processor, 0, len(kernels))
	for _, w := range kernels {
		prog, err := w.Assemble()
		if err != nil {
			return nil, err
		}
		p, err := designs.BuildCfg(designs.All, sim.Config{Engine: engine})
		if err != nil {
			return nil, err
		}
		if err := p.Load(prog); err != nil {
			return nil, err
		}
		if err := p.Boot(); err != nil {
			return nil, err
		}
		lanes = append(lanes, p)
	}
	return lanes, nil
}

// BatchThroughput measures the workload sweep as one lockstep batch.
func BatchThroughput(kernels []workloads.Workload) (BatchRow, error) {
	// The common horizon is the slowest kernel's drain cycle, found
	// with an untimed scouting pass.
	horizon := 0
	scout, err := batchLanes(kernels, "vm")
	if err != nil {
		return BatchRow{}, err
	}
	for i, p := range scout {
		n, err := p.Run(kernels[i].MaxSteps * 8)
		if err != nil {
			return BatchRow{}, fmt.Errorf("bench: %s: %w", kernels[i].Name, err)
		}
		if n > horizon {
			horizon = n
		}
	}

	seq, err := batchLanes(kernels, "vm")
	if err != nil {
		return BatchRow{}, err
	}
	t0 := time.Now()
	for i, p := range seq {
		if err := p.M.Advance(horizon); err != nil {
			return BatchRow{}, fmt.Errorf("bench: seq lane %s: %w", kernels[i].Name, err)
		}
	}
	seqWall := time.Since(t0)

	bat, err := batchLanes(kernels, "vm")
	if err != nil {
		return BatchRow{}, err
	}
	steppers := make([]vm.Stepper, len(bat))
	for i, p := range bat {
		steppers[i] = p.M
	}
	b := vm.NewBatch(steppers)
	t0 = time.Now()
	if live := b.Run(horizon); live != len(bat) {
		for i := range bat {
			if err := b.Err(i); err != nil {
				return BatchRow{}, fmt.Errorf("bench: batch lane %s: %w", kernels[i].Name, err)
			}
		}
	}
	batchWall := time.Since(t0)

	// Cross-check: both drivers must have produced the same runs.
	for i := range seq {
		if sr, br := len(seq[i].Retired()), len(bat[i].Retired()); sr != br {
			return BatchRow{}, fmt.Errorf("bench: lane %s retired %d sequentially but %d batched",
				kernels[i].Name, sr, br)
		}
	}

	total := float64(horizon) * float64(len(kernels))
	return BatchRow{
		Lanes:     len(kernels),
		Horizon:   horizon,
		SeqWall:   seqWall,
		BatchWall: batchWall,
		SeqMCPS:   total / seqWall.Seconds() / 1e6,
		BatchMCPS: total / batchWall.Seconds() / 1e6,
		Speedup:   seqWall.Seconds() / batchWall.Seconds(),
	}, nil
}

// BatchString renders the batch measurement.
func BatchString(r BatchRow) string {
	var b strings.Builder
	b.WriteString("Lockstep batch — workload sweep as lanes of one design\n")
	fmt.Fprintf(&b, "lanes %d, horizon %d cycles (aggregate %d machine-cycles)\n",
		r.Lanes, r.Horizon, r.Lanes*r.Horizon)
	fmt.Fprintf(&b, "vm sequential:     %10.2f Mcycles/s (%v)\n", r.SeqMCPS, r.SeqWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "vm lockstep batch: %10.2f Mcycles/s (%v)\n", r.BatchMCPS, r.BatchWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "speedup: %.2fx\n", r.Speedup)
	return b.String()
}
