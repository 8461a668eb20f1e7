// Golden snapshot fixtures: one checked-in snapshot per variant, taken
// at a fixed cycle of a fixed workload, pinned byte-for-byte. They
// catch accidental format drift — any codec or layout change shows up
// as a fixture diff and forces a conscious decision (bump
// snap.Version, regenerate with -update), instead of silently
// orphaning users' saved checkpoints.
//
// Regenerate after an intentional format change with:
//
//	go test ./internal/sim -run TestSnapshotGolden -update
package sim_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xpdl/internal/designs"
	"xpdl/internal/sim"
	"xpdl/internal/snap"
	"xpdl/internal/workloads"
)

var updateSnap = flag.Bool("update", false, "rewrite the golden snapshot fixtures under testdata/snap")

// goldenCycle is the fixed mid-run cycle every fixture is taken at:
// deep enough that pipes, queues and spec tables are populated.
const goldenCycle = 64

func goldenSnapshot(t *testing.T, v designs.Variant) ([]byte, workloads.Workload) {
	t.Helper()
	w, err := workloads.ByName("fib")
	if err != nil {
		t.Fatal(err)
	}
	p := resumeBuild(t, v, w, 0, "vm")
	if _, err := p.Run(goldenCycle); err != nil {
		var cb *sim.CycleBudgetError
		if !errors.As(err, &cb) {
			t.Fatal(err)
		}
	}
	b, err := p.M.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b, w
}

func TestSnapshotGolden(t *testing.T) {
	for _, v := range designs.Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			got, w := goldenSnapshot(t, v)
			again, _ := goldenSnapshot(t, v)
			if !bytes.Equal(got, again) {
				t.Fatalf("snapshot is not deterministic (%d vs %d bytes)", len(got), len(again))
			}

			path := filepath.Join("testdata", "snap", v.String()+".snap")
			if *updateSnap {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("snapshot format drifted from the checked-in fixture (%d vs %d bytes); "+
					"bump snap.Version and rerun with -update if the change is intentional", len(got), len(want))
			}

			// The fixture stays loadable: restore it and run to completion.
			res := resumeBuild(t, v, w, 0, "vm")
			if err := res.M.Restore(bytes.NewReader(want)); err != nil {
				t.Fatalf("restore fixture: %v", err)
			}
			if _, err := res.M.Run(w.MaxSteps * 32); err != nil {
				t.Fatalf("run restored fixture: %v", err)
			}
		})
	}
}

// TestSnapshotCorruptionRejected feeds a real machine snapshot back
// through Restore after truncation, a bit flip, and a version bump:
// every mutation must yield a typed error, never a bad machine.
func TestSnapshotCorruptionRejected(t *testing.T) {
	good, w := goldenSnapshot(t, designs.All)
	fresh := func() *designs.Processor { return resumeBuild(t, designs.All, w, 0, "vm") }

	t.Run("truncated", func(t *testing.T) {
		if err := fresh().M.Restore(bytes.NewReader(good[:len(good)/2])); err == nil {
			t.Fatal("truncated snapshot accepted")
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		for _, at := range []int{16, len(good) / 2, len(good) - 12} {
			bad := append([]byte(nil), good...)
			bad[at] ^= 0x40
			if err := fresh().M.Restore(bytes.NewReader(bad)); err == nil {
				t.Fatalf("snapshot with flipped byte at %d accepted", at)
			}
		}
	})
	t.Run("version-bump", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = byte(snap.Version + 1)
		err := fresh().M.Restore(bytes.NewReader(bad))
		var ve *snap.VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("future-version snapshot: got %v, want *snap.VersionError", err)
		}
	})
}
