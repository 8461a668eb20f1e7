package designgen

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"xpdl/internal/bveq"
)

// fixtureBounds is the static-gate configuration the fixture is pinned
// at: K=2 is already enough to catch the seeded bug.
func fixtureBounds() bveq.Bounds { return bveq.Bounds{K: 2, Window: 6} }

func loadFixtureSpec(t *testing.T) *DesignSpec {
	t.Helper()
	raw, err := os.ReadFile("testdata/bveq-abort-strip.json")
	if err != nil {
		t.Fatal(err)
	}
	var d DesignSpec
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	d.Normalize()
	return &d
}

// TestBveqFixtureCaughtStatically regression-pins the PR 7 seeded
// abort-strip translation bug as a *static* catch: no fuzzing, no
// random programs — the bounded exhaustive sweep at K=2 must reject the
// corrupted translation of the pinned design, and the shrinker must
// bring the counterexample down to a single instruction.
func TestBveqFixtureCaughtStatically(t *testing.T) {
	d := loadFixtureSpec(t)

	rep, err := BoundedVerify(d, fixtureBounds(), bveq.StripAborts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatalf("abort-strip corruption not caught on %s at K=%d (%d points swept)",
			d.Name(), rep.K, rep.Points)
	}
	ce := rep.Counterexamples[0]
	t.Logf("caught: %s: %s (prog=%v, intr=%d)", ce.Stage, ce.Detail, ce.Asm, ce.IntrCycle)

	tgt, err := BveqTarget(d, rep.Width, bveq.StripAborts)
	if err != nil {
		t.Fatal(err)
	}
	sc := bveq.ShrinkPoint(tgt, fixtureBounds(), ce)
	if !sc.Shrunk {
		t.Error("shrinker did not run")
	}
	if len(sc.Prog) > 2 {
		t.Errorf("shrunk counterexample has %d words, want <= 2: %v", len(sc.Prog), sc.Asm)
	}
	if bveq.CheckPoint(tgt, sc.Prog, sc.IntrCycle, "vm") == nil {
		t.Error("shrunk counterexample no longer diverges (monotonicity violated)")
	}

	// The diagnostic rendering must carry the program and the timing.
	dg := sc.Diagnostic()
	if !strings.HasPrefix(dg.Code, "E-BVEQ-") {
		t.Errorf("diagnostic code %q is not an E-BVEQ code", dg.Code)
	}
	if len(dg.Notes) == 0 {
		t.Error("diagnostic has no notes")
	}
}

// TestBveqFixtureCleanVerified: the uncorrupted translation of the very
// same design earns the badge under identical bounds — the catch is the
// seeded bug, not a latent divergence.
func TestBveqFixtureCleanVerified(t *testing.T) {
	d := loadFixtureSpec(t)
	rep, err := BoundedVerify(d, fixtureBounds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range rep.Counterexamples {
		t.Errorf("clean fixture diverges: %s: %s (prog=%v, intr=%d)", ce.Stage, ce.Detail, ce.Asm, ce.IntrCycle)
	}
	if !rep.Verified {
		t.Fatalf("clean fixture not bounded-verified (%d points)", rep.Points)
	}
}

// TestCampaignBveqGate: a clean campaign with the gate on sweeps every
// surviving design and finds nothing.
func TestCampaignBveqGate(t *testing.T) {
	sum := RunCampaign(CampaignOpts{N: 4, Seed: 11, Bveq: true, BveqLen: 2})
	if sum.Bveq == 0 {
		t.Fatal("no designs were bveq-gated")
	}
	for _, f := range sum.Findings {
		t.Errorf("clean campaign finding: %s %s: %s", f.Kind, f.Stage, f.Detail)
	}
}
