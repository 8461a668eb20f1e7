package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.5, 1},
		{2, 0.5, 1},
		{9, 0.5, 5},
		{10, 0.5, 5},
		{100, 0.9, 90},
		{101, 0.9, 91},
		{1000, 0.99, 990},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	// p90 of 99 samples is rank 90 with 9 beyond: refused.
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	// p90 of 100 samples is rank 90 with 10 beyond: allowed.
	if _, err := percentile(seq(100), 0.9); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if tailAllowed(0.99, 999) || !tailAllowed(0.99, 1000) {
		t.Error("p99 boundary is not 1000 samples")
	}
	// The median is always allowed, however few the samples.
	if !tailAllowed(0.5, 1) || tailAllowed(0.5, 0) {
		t.Error("median rule wrong")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {40, 0.75}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if median(nil) != 0 {
		t.Error("median of no samples is not 0")
	}
}

func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30), // disjoint children of 1
		span(3, 1, 50, 60),
		span(4, 2, 12, 20), // grandchild: counts against 2, not 1
		span(5, 0, 200, 300),
		span(6, 5, 210, 250), // overlapping children of 5: union 210..270
		span(7, 5, 240, 270),
		span(8, 5, 260, 265), // inside 7
		span(9, 0, 400, 450),
		span(10, 9, 440, 480), // sticks out of its parent: clipped
	}
	want := []time.Duration{70, 12, 10, 8, 40, 40, 30, 5, 40, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	// Self times of a properly nested tree add up to its root.
	var sum time.Duration
	for i := 0; i < 4; i++ {
		sum += got[i]
	}
	if sum != 100 {
		t.Errorf("self times of tree 1 sum to %v, want 100", sum)
	}
}

func TestByLayerGroupsByName(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "job", Start: 0, End: 10 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "run", Start: 0, End: 4 * time.Millisecond},
		{ID: 3, Parent: 1, Name: "run", Start: 5 * time.Millisecond, End: 9 * time.Millisecond},
	}
	l := byLayer(spans)
	if l["job"].self != 2*time.Millisecond || l["run"].self != 8*time.Millisecond || len(l["run"].durs) != 2 {
		t.Errorf("byLayer = job %+v, run %+v", *l["job"], *l["run"])
	}
}

func TestTallyFailRatio(t *testing.T) {
	var a tally
	if a.failRatio() != 0 {
		t.Error("empty tally has a nonzero fail ratio")
	}
	for i := 0; i < 10; i++ {
		reason := ""
		if i%4 == 0 {
			reason = "bad"
		}
		a.record(reason)
	}
	if a.attempted != 10 || a.failed != 3 || a.failRatio() != 0.3 || len(a.reasons) != 3 {
		t.Errorf("tally = %+v, ratio %v", a, a.failRatio())
	}
	for i := 0; i < 20; i++ {
		a.record("worse")
	}
	if a.attempted != 30 || a.failed != 23 || len(a.reasons) != keptReasons {
		t.Errorf("tally = %d attempted, %d failed, %d reasons kept", a.attempted, a.failed, len(a.reasons))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(1, 0, "x")
	tr.End(id)
	tr.Add(1, id, "y", time.Now(), time.Now())
	if id != 0 || tr.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloadFns) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(bench.Workloads), len(workloadFns))
	}
	for _, w := range bench.Workloads {
		if workloadFns[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
