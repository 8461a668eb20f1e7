// The retirement trace is a pointer-free log behind an incrementally
// extended []Retirement view. These tests pin the view's contract:
// per-cycle and one-shot reads agree, earlier results never change,
// MaxTrace caps the log, and snapshots round-trip it.
package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"xpdl/internal/asm"
	"xpdl/internal/designs"
	"xpdl/internal/sim"
)

// trapLoopMachine boots the all variant on progTrapLoop, whose
// retirements include exceptional ones with except arguments.
func trapLoopMachine(t *testing.T, cfg sim.Config) *designs.Processor {
	t.Helper()
	p, err := designs.BuildCfg(designs.All, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(progTrapLoop)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Boot(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRetiredViewIncremental(t *testing.T) {
	for _, engine := range sim.Engines() {
		t.Run(engine, func(t *testing.T) {
			once := trapLoopMachine(t, sim.Config{Engine: engine})
			if _, err := once.Run(20000); err != nil {
				t.Fatal(err)
			}
			want := once.M.Retired()

			// Cosim's pattern: read the trace every cycle, keeping every
			// slice returned along the way with a deep copy of it.
			every := trapLoopMachine(t, sim.Config{Engine: engine})
			type kept struct{ got, copied []sim.Retirement }
			var keep []kept
			for every.M.InFlight() > 0 {
				if err := every.M.Step(); err != nil {
					t.Fatal(err)
				}
				got := every.M.Retired()
				if n := len(keep); n == 0 || len(got) != len(keep[n-1].got) {
					keep = append(keep, kept{got, deepCopy(got)})
				}
			}
			for _, k := range keep {
				if !reflect.DeepEqual(k.got, k.copied) {
					t.Fatalf("a trace slice of %d retirements changed after later retirements", len(k.got))
				}
				// Appending to a returned slice must not write into the
				// machine's view, which has grown past it in place.
				_ = append(k.got, sim.Retirement{Pipe: "bogus"})
			}
			if got := every.M.Retired(); !reflect.DeepEqual(got, want) {
				t.Fatalf("per-cycle reads built a different trace (%d vs %d retirements)", len(got), len(want))
			}

			exc := 0
			for _, r := range want {
				if r.Exceptional && len(r.EArgs) > 0 {
					exc++
				}
			}
			if len(want) < 20 || exc == 0 {
				t.Fatalf("trace too thin: %d retirements, %d exceptional with except args", len(want), exc)
			}
		})
	}
}

func deepCopy(rs []sim.Retirement) []sim.Retirement {
	if rs == nil {
		return nil
	}
	out := make([]sim.Retirement, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Args = append(r.Args[:0:0], r.Args...)
		if r.EArgs != nil {
			out[i].EArgs = append(r.EArgs[:0:0], r.EArgs...)
		}
	}
	return out
}

func TestRetiredMaxTrace(t *testing.T) {
	full := trapLoopMachine(t, sim.Config{})
	if _, err := full.Run(20000); err != nil {
		t.Fatal(err)
	}
	capped := trapLoopMachine(t, sim.Config{MaxTrace: 10})
	if _, err := capped.Run(20000); err != nil {
		t.Fatal(err)
	}
	got, all := capped.M.Retired(), full.M.Retired()
	if len(all) <= 10 {
		t.Fatalf("workload retires only %d instructions", len(all))
	}
	if !reflect.DeepEqual(got, all[:10]) {
		t.Fatalf("MaxTrace 10 kept %d retirements, want the first 10 of %d", len(got), len(all))
	}
}

func TestRetiredSnapshotRoundTrip(t *testing.T) {
	for _, engine := range sim.Engines() {
		t.Run(engine, func(t *testing.T) {
			p := trapLoopMachine(t, sim.Config{Engine: engine})
			if _, err := p.M.Run(20000); err != nil {
				t.Fatal(err)
			}
			before := p.M.Retired()
			snap, err := p.M.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			q := trapLoopMachine(t, sim.Config{Engine: engine})
			if err := q.M.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			if got := q.M.Retired(); !reflect.DeepEqual(got, before) {
				t.Fatalf("restored trace differs: %d vs %d retirements", len(got), len(before))
			}
			again, err := q.M.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, snap) {
				t.Fatal("save → restore → save changed the snapshot bytes")
			}
			// Restoring over a machine keeps the slices it returned before.
			kept := deepCopy(before)
			if err := p.M.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, kept) {
				t.Fatal("Restore changed a previously returned trace")
			}
		})
	}
}
