package bveq

import (
	"bytes"
	"runtime"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/designs"
)

// sweep runs one sweep and returns the report with its canonical bytes.
func sweep(t *testing.T, v designs.Variant, corrupt func(map[string]*core.Result), engine string) (*Report, []byte) {
	t.Helper()
	tgt, err := NewVariantTarget(v, 2, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(tgt, Bounds{K: 2, Window: 4, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.Canon()
	if err != nil {
		t.Fatal(err)
	}
	return rep, raw
}

// sweepCanon runs one sweep and returns the canonical report bytes.
func sweepCanon(t *testing.T, v designs.Variant, corrupt func(map[string]*core.Result), engine string) []byte {
	t.Helper()
	_, raw := sweep(t, v, corrupt, engine)
	return raw
}

// TestReportDeterminism: same target, same bounds — byte-identical
// canonical JSON across repeated runs and across both engines,
// with and without counterexamples. This is the guard that keeps the
// badge a pure function of (design, bounds): wall time, engine
// identity, and worker scheduling are excluded by construction.
func TestReportDeterminism(t *testing.T) {
	// One worker against the default pool, before the parallel subtests
	// start: with a single P the workers claim and finish points one at
	// a time, so any dependence of the report on completion order shows.
	// The corrupted sweep fills the counterexample cap mid-chunk, so the
	// cap, the skip after a primary mismatch and the spot-check count
	// are all exercised.
	prev := runtime.GOMAXPROCS(1)
	rep, serial := sweep(t, designs.All, StripAborts, "vm")
	runtime.GOMAXPROCS(prev)
	if len(rep.Counterexamples) != maxCE || rep.SpotChecks == 0 {
		t.Fatalf("corrupt-all sweep: %d counterexamples, %d spot checks; want %d and some",
			len(rep.Counterexamples), rep.SpotChecks, maxCE)
	}
	if pooled := sweepCanon(t, designs.All, StripAborts, "vm"); !bytes.Equal(serial, pooled) {
		t.Errorf("report differs between GOMAXPROCS=1 and %d:\n--- serial\n%s\n--- pooled\n%s", prev, serial, pooled)
	}

	cases := []struct {
		name    string
		v       designs.Variant
		corrupt func(map[string]*core.Result)
	}{
		{name: "clean-trap", v: designs.Trap},
		{name: "corrupt-all", v: designs.All, corrupt: StripAborts},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ref := sweepCanon(t, tc.v, tc.corrupt, "vm")
			if again := sweepCanon(t, tc.v, tc.corrupt, "vm"); !bytes.Equal(ref, again) {
				t.Errorf("vm report differs across identical runs:\n--- run1\n%s\n--- run2\n%s", ref, again)
			}
			if got := sweepCanon(t, tc.v, tc.corrupt, "interp"); !bytes.Equal(ref, got) {
				t.Errorf("report differs between vm and interp:\n--- vm\n%s\n--- interp\n%s", ref, got)
			}
		})
	}
}
