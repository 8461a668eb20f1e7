package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"xpdl/internal/bveq"
	"xpdl/internal/designgen"
	"xpdl/internal/designs"
	"xpdl/internal/sim"
)

// bveqBounds are the bounds of every design verified here: programs of
// up to two instructions, and the bounds an xpdld bveq job takes by
// default. Lanes, workers, budget and spot checks keep bveq defaults.
var bveqBounds = bveq.Bounds{K: 2, Width: 2, Window: 4}

// Each seed picks genIntr interrupt-capable and genPlain other
// generated designs. Fixing the mix keeps the cost of a round steady
// across seeds; which designs fill it is up to the seed.
const (
	genIntr  = 2
	genPlain = 4
)

// bveqSetupReps is how often each segment repeats the bveq set-up:
// drawing the seed's designs and building every target once.
const bveqSetupReps = 2

// bveqDesign is one design the workload verifies.
type bveqDesign struct {
	name   string
	target func() (bveq.Target, error)
	// generated marks a designgen design; want is its pinned counts,
	// nil when the seed is outside the pinned table.
	generated bool
	want      *countPin
}

// variantDesigns are the five hand-written RV32IM variants.
func variantDesigns() []bveqDesign {
	var ds []bveqDesign
	for _, v := range designs.Variants() {
		d := bveqDesign{name: v.String(), target: func() (bveq.Target, error) {
			return bveq.NewVariantTarget(v, bveqBounds.Width, nil)
		}}
		if c, ok := pins.Variants[d.name]; ok {
			d.want = &c
		}
		ds = append(ds, d)
	}
	return ds
}

// generatedDesigns draws the seed's designgen designs.
func generatedDesigns(seed uint64) []bveqDesign {
	table := pins.Generated[strconv.FormatUint(seed, 10)]
	var ds []bveqDesign
	nIntr, nPlain := 0, 0
	for i := uint64(0); nIntr < genIntr || nPlain < genPlain; i++ {
		spec := designgen.Generate(mix(seed, i))
		if spec.Interrupts && nIntr < genIntr {
			nIntr++
		} else if !spec.Interrupts && nPlain < genPlain {
			nPlain++
		} else {
			continue
		}
		d := bveqDesign{name: spec.Name(), generated: true, target: func() (bveq.Target, error) {
			return designgen.BveqTarget(spec, bveqBounds.Width, nil)
		}}
		if j := len(ds); j < len(table) {
			d.want = &table[j]
		}
		ds = append(ds, d)
	}
	return ds
}

// mix derives the i-th design seed from the run seed (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// checkCounts compares a design's report with its pin, or, for a
// generated design without one, with the closed-form enumeration size.
func checkCounts(d bveqDesign, t bveq.Target, rep *bveq.Report) string {
	got := countPin{Points: rep.Points, SpotChecks: rep.SpotChecks}
	want := d.want
	switch {
	case want != nil && d.generated:
		got.Design = d.name
	case want == nil && d.generated:
		_, points := bveq.Cardinality(bveqBounds, len(t.Alphabet()), len(t.ExcLetters()), t.IntrCapable())
		want = &countPin{Points: points, SpotChecks: (points + spotEvery - 1) / spotEvery}
	case want == nil:
		return d.name + ": no pinned bveq counts"
	}
	if got != *want {
		return fmt.Sprintf("%s: counts %+v differ from pinned %+v", d.name, got, *want)
	}
	return ""
}

// spotEvery is bveq's default interpreter spot-check stride.
const spotEvery = 16

// verifyCounts verifies one design and returns its counts, failing on
// anything but a clean verification.
func verifyCounts(d bveqDesign) (countPin, error) {
	t, err := d.target()
	if err != nil {
		return countPin{}, fmt.Errorf("%s: target: %w", d.name, err)
	}
	rep, err := bveq.Verify(t, bveqBounds)
	if err != nil {
		return countPin{}, fmt.Errorf("%s: verify: %w", d.name, err)
	}
	if !rep.Verified {
		return countPin{}, fmt.Errorf("%s: not verified (%d counterexamples)", d.name, len(rep.Counterexamples))
	}
	return countPin{Points: rep.Points, SpotChecks: rep.SpotChecks}, nil
}

// timedTarget records a span around every Build and Check call of the
// target it wraps.
type timedTarget struct {
	bveq.Target
	tr         *Tracer
	op, parent int
	builds     atomic.Int64
}

func (t *timedTarget) Build(prog []uint32, intr int, engine string) (*sim.Machine, error) {
	id := t.tr.Begin(t.op, t.parent, "bveq.build")
	defer t.tr.End(id)
	t.builds.Add(1)
	return t.Target.Build(prog, intr, engine)
}

func (t *timedTarget) Check(prog []uint32, intr int, m *sim.Machine, runErr error) *bveq.Mismatch {
	id := t.tr.Begin(t.op, t.parent, "bveq.check")
	defer t.tr.End(id)
	return t.Target.Check(prog, intr, m, runErr)
}

// designRun is what verifying one design produced.
type designRun struct {
	points, spots, builds int
	latency               time.Duration
}

// verifyDesign builds a design's target and verifies it. A non-empty
// reason means the design failed.
func verifyDesign(tr *Tracer, op int, d bveqDesign) (designRun, string) {
	var r designRun
	start := time.Now()
	root := tr.Begin(op, 0, "design")
	defer tr.End(root)

	id := tr.Begin(op, root, "bveq.target")
	t, err := d.target()
	tr.End(id)
	if err != nil {
		return r, d.name + ": target: " + shortErr(err)
	}
	id = tr.Begin(op, root, "bveq.verify")
	var timed *timedTarget
	if tr != nil {
		timed = &timedTarget{Target: t, tr: tr, op: op, parent: id}
		t = timed
	}
	rep, err := bveq.Verify(t, bveqBounds)
	tr.End(id)
	if err != nil {
		return r, d.name + ": " + shortErr(err)
	}
	if timed != nil {
		r.builds = int(timed.builds.Load())
	}
	r.latency = time.Since(start)
	r.points, r.spots = rep.Points, rep.SpotChecks
	if !rep.Verified {
		return r, fmt.Sprintf("%s: not verified: %d counterexamples", d.name, len(rep.Counterexamples))
	}
	return r, checkCounts(d, t, rep)
}

// runBveq is bounded exhaustive verification: rounds over the five
// hand-written variants and the seed's generated designs, each built
// into a bveq target and verified under the vm engine. One op is one
// design; the seed shuffles the order within each round.
func runBveq(o opts) (*outcome, error) {
	res := newOutcome()
	var tracer *Tracer
	if o.trace {
		tracer = newTracer()
	}
	res.tracer = tracer
	rng := rand.New(rand.NewSource(int64(o.seed)))
	var ds []bveqDesign
	var latencies, raw, tracedRounds, plainRounds []float64
	var firstRoundRSS float64
	var points, roundPoints, roundSpots, tracedPoints, builds int
	op, round := 0, 0

	before := readRuntime()
	seg, err := segmented(o.seconds, bveqSetupReps, func() error {
		ds = append(variantDesigns(), generatedDesigns(o.seed)...)
		for _, d := range ds {
			if _, err := d.target(); err != nil {
				return fmt.Errorf("%s: target: %w", d.name, err)
			}
		}
		return nil
	}, func(deadline time.Time, scale float64) (float64, error) {
		segPoints := 0
		for ; time.Now().Before(deadline); round++ {
			var tr *Tracer
			if round%2 == 1 {
				tr = tracer
			}
			roundStart := time.Now()
			var rp, rs int
			complete := true
			for _, i := range rng.Perm(len(ds)) {
				if time.Now().After(deadline) {
					complete = false
					break
				}
				op++
				r, reason := verifyDesign(tr, op, ds[i])
				res.ops.record(reason)
				rp, rs = rp+r.points, rs+r.spots
				if reason != "" {
					continue
				}
				latencies = append(latencies, ms(r.latency)*scale)
				raw = append(raw, ms(r.latency))
				if tr != nil {
					builds += r.builds
					tracedPoints += r.points
				}
			}
			points += rp
			segPoints += rp
			if !complete {
				break
			}
			d := ms(time.Since(roundStart))
			if tr != nil {
				tracedRounds = append(tracedRounds, d)
			} else {
				plainRounds = append(plainRounds, d)
			}
			roundPoints, roundSpots = rp, rs
			if firstRoundRSS == 0 {
				firstRoundRSS = peakRSSMB()
			}
		}
		return float64(segPoints), nil
	})
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	if err := res.report(seg, latencies, raw); err != nil {
		return nil, err
	}
	// Peak RSS after one round; see runKernels.
	res.e2e["rss_mb"] = firstRoundRSS
	res.layer["runtime.peak_rss_mb"] = peakRSSMB()
	res.infof("bveq_points_per_s %.6g (work_per_s); designs verified %d in %d rounds of %d",
		res.e2e["work_per_s"], len(latencies), len(tracedRounds)+len(plainRounds), len(ds))
	res.infof("verify_ms_p50 %.4g, verify_ms_p90 %.4g (op_ms_*); points per round %d, spot checks %d",
		res.e2e["op_ms_p50"], res.e2e["op_ms_p90"], roundPoints, roundSpots)

	if o.trace {
		l := res.layer
		layers := byLayer(tracer.Spans())
		l["bveq.target_ms_p50"] = medianOf(layers, "bveq.target")
		l["bveq.build_us_p50"] = 1000 * medianOf(layers, "bveq.build")
		l["bveq.check_us_p50"] = 1000 * medianOf(layers, "bveq.check")
		if v := layers["bveq.verify"]; v != nil {
			l["bveq.build_share"] = shareOf(layers, "bveq.build", v.total)
			l["bveq.check_share"] = shareOf(layers, "bveq.check", v.total)
			l["bveq.step_share"] = ratio(float64(v.self), float64(v.total))
		}
		l["bveq.builds_per_point"] = ratio(float64(builds), float64(tracedPoints))
		l["runtime.alloc_bytes_per_point"] = ratio(after.allocBytes-before.allocBytes, float64(points))
		l["bveq.points"] = float64(roundPoints)
		l["bveq.spot_checks"] = float64(roundSpots)
		traceSummary(res, layers, "design", tracedRounds, plainRounds)
		fill(l, perLayer)
	}
	return res, nil
}

// shareOf is a layer's self time as a share of total.
func shareOf(layers map[string]*layerStats, name string, total time.Duration) float64 {
	if ls := layers[name]; ls != nil {
		return ratio(float64(ls.self), float64(total))
	}
	return 0
}
