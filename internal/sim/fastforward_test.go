// Quiescent-cycle fast-forward correctness: skipping provably-quiet
// cycles must be externally invisible, on either engine. Every
// observable — cycle counts, firing cycles, retirement traces, memory,
// watchdog trip points and their diagnoses — must match a plain Step()
// loop over the same design exactly; only wall-clock time may differ.
package sim

import (
	"errors"
	"testing"

	"xpdl/internal/val"
)

// pacedSrc is a device-paced pipeline: work arrives only when the
// (predictable) device enqueues it, so the machine alternates short
// active bursts with long fully-drained stretches — the shape
// quiescent fast-forward exists for.
const pacedSrc = `
memory acc: uint<32>[16] with basic, comb_read;
pipe p(i: uint<32>)[acc] {
    x = i * 3;
    a = i[3:0];
    acquire(acc[ext(a, 4)], W);
    ---
    acc[ext(a, 4)] <- acc[ext(a, 4)] + x;
    release(acc[ext(a, 4)]);
}
`

// pacedMachine builds a machine whose device starts one instruction
// every period cycles, maxEvents times, via the wake-predicting hook.
// It returns the machine and a counter of hook invocations (every
// non-skipped cycle calls the hook; skipped cycles must not).
func pacedMachine(t *testing.T, engine string, period, maxEvents int) (*Machine, *int) {
	t.Helper()
	m := build(t, pacedSrc, Config{Engine: engine})
	hookCalls := new(int)
	started := 0
	m.OnCycleWake(func(m *Machine) {
		*hookCalls++
		if m.Cycle()%period == 0 && started < maxEvents {
			if err := m.Start("p", val.New(uint64(started), 32)); err != nil {
				t.Errorf("device start %d: %v", started, err)
			}
			started++
		}
	}, func(cycle int) int {
		if started >= maxEvents {
			return cycle + 1<<30 // device exhausted: never wakes again
		}
		if cycle%period == 0 {
			return cycle
		}
		return cycle + period - cycle%period
	})
	return m, hookCalls
}

// stepTo ticks m one Step at a time up to cycle target: the reference
// run, which never skips a cycle.
func stepTo(t *testing.T, m *Machine, target int) {
	t.Helper()
	for m.Cycle() < target {
		if err := m.Step(); err != nil {
			t.Fatalf("step at cycle %d: %v", m.Cycle(), err)
		}
	}
}

func TestFastForwardDeviceDriven(t *testing.T) {
	const period, events, horizon = 97, 12, 2000
	for _, engine := range Engines() {
		t.Run(engine, func(t *testing.T) {
			ref, refHooks := pacedMachine(t, engine, period, events)
			stepTo(t, ref, horizon)
			ff, ffHooks := pacedMachine(t, engine, period, events)
			if err := ff.Advance(horizon); err != nil {
				t.Fatalf("advance: %v", err)
			}
			if got := ff.Cycle(); got != horizon {
				t.Fatalf("Advance(%d) left cycle at %d", horizon, got)
			}
			if ff.InFlight() != 0 || ref.InFlight() != 0 {
				t.Fatalf("instructions still in flight: stepped %d, fast-forwarded %d",
					ref.InFlight(), ff.InFlight())
			}

			if rf, ff := ref.Firings(), ff.Firings(); rf != ff {
				t.Errorf("firings: stepped %d, fast-forwarded %d", rf, ff)
			}
			rrs, frs := ref.Retired(), ff.Retired()
			if len(rrs) != len(frs) {
				t.Fatalf("retirements: stepped %d, fast-forwarded %d", len(rrs), len(frs))
			}
			if len(rrs) != events {
				t.Fatalf("retirements: got %d, want %d", len(rrs), events)
			}
			for k := range rrs {
				if rrs[k].IID != frs[k].IID || rrs[k].Cycle != frs[k].Cycle {
					t.Errorf("retirement %d: stepped iid=%d cycle=%d, fast-forwarded iid=%d cycle=%d",
						k, rrs[k].IID, rrs[k].Cycle, frs[k].IID, frs[k].Cycle)
				}
			}
			for a := uint64(0); a < 16; a++ {
				if rv, fv := ref.MemPeek("acc", a).Uint(), ff.MemPeek("acc", a).Uint(); rv != fv {
					t.Errorf("acc[%d]: stepped %d, fast-forwarded %d", a, rv, fv)
				}
			}

			// The stepped run ticks every cycle; Advance must have skipped
			// the drained stretches between device wakes (at period 97
			// over 2000 cycles, ~94% of cycles are quiet).
			if *refHooks != horizon {
				t.Errorf("stepped device hook ran %d times, want %d", *refHooks, horizon)
			}
			if got := *ffHooks; got >= horizon/2 {
				t.Errorf("device hook ran %d of %d cycles: fast-forward never engaged", got, horizon)
			} else if got < events {
				t.Errorf("device hook ran %d times, fewer than the %d wake events", got, events)
			}
		})
	}
}

// TestFastForwardWatchdogExact pins the subtlest equivalence: the hang
// watchdog must trip at the same cycle with the same idle count and
// diagnosis whether or not the idle run-up was fast-forwarded, because
// the trip itself is raised by a real Step.
func TestFastForwardWatchdogExact(t *testing.T) {
	for _, engine := range Engines() {
		t.Run(engine, func(t *testing.T) {
			ref := build(t, crossLockSrc, Config{Engine: engine})
			ref.Start("a", val.New(10, 32))
			ref.Start("b", val.New(20, 32))
			var err error
			for ref.Cycle() < 5000 && err == nil {
				err = ref.Step()
			}
			var rdl *DeadlockError
			if !errors.As(err, &rdl) {
				t.Fatalf("stepped: got %T (%v), want *DeadlockError", err, err)
			}

			ff := build(t, crossLockSrc, Config{Engine: engine})
			ff.Start("a", val.New(10, 32))
			ff.Start("b", val.New(20, 32))
			n, err := ff.Run(5000)
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("run: got %T (%v), want *DeadlockError", err, err)
			}
			if n != ref.Cycle() {
				t.Errorf("run length: stepped %d, run %d", ref.Cycle(), n)
			}
			if rdl.Cycle != dl.Cycle || rdl.Idle != dl.Idle || rdl.InFlight != dl.InFlight {
				t.Errorf("deadlock: stepped cycle=%d idle=%d inflight=%d, run cycle=%d idle=%d inflight=%d",
					rdl.Cycle, rdl.Idle, rdl.InFlight, dl.Cycle, dl.Idle, dl.InFlight)
			}
			if rdl.Error() != dl.Error() {
				t.Errorf("diagnosis differs:\nstepped: %s\nrun: %s", rdl.Error(), dl.Error())
			}
		})
	}
}

// TestAdvanceEmptyMachine: with no devices and nothing in flight Advance
// jumps the whole horizon in one skip and lands exactly on target.
func TestAdvanceEmptyMachine(t *testing.T) {
	for _, engine := range Engines() {
		m := build(t, pacedSrc, Config{Engine: engine})
		if err := m.Advance(100000); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if got := m.Cycle(); got != 100000 {
			t.Errorf("%s: cycle = %d, want 100000", engine, got)
		}
	}
}

// TestAdvanceBudgetErrorFree: Advance treats the horizon as a target,
// not a budget — in-flight work at the horizon is not an error, and a
// later Advance picks up exactly where the first stopped.
func TestAdvanceBudgetErrorFree(t *testing.T) {
	for _, engine := range Engines() {
		m := build(t, counterPipe, Config{Engine: engine})
		m.Start("p", val.New(0, 32))
		if err := m.Advance(3); err != nil {
			t.Fatalf("%s: advance into flight: %v", engine, err)
		}
		if m.InFlight() == 0 {
			t.Fatalf("%s: pipeline drained implausibly fast", engine)
		}
		if err := m.Advance(500); err != nil {
			t.Fatalf("%s: second advance: %v", engine, err)
		}
		if m.InFlight() != 0 {
			t.Errorf("%s: machine did not drain", engine)
		}
		if got := m.Cycle(); got != 503 {
			t.Errorf("%s: cycle = %d, want 503", engine, got)
		}
	}
}
