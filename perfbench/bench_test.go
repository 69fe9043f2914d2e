package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"tramlib/tram"
)

// TestMain lets the test binary serve as a Dist worker process.
func TestMain(m *testing.M) {
	tram.Main()
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs one untraced and one traced repetition of every
// workload at a tiny scale: each passes its correctness check, and the
// aggregate of the two carries every metric BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var reps []repResult
			for _, trace := range []bool{false, true} {
				r := runRep(repOpts{seed: 7, trace: trace, scale: 0.01, dir: dir, name: name}, w)
				if r.Err != "" {
					t.Fatalf("trace=%v: %s", trace, r.Err)
				}
				if len(r.Lat) == 0 {
					t.Fatalf("trace=%v: no latency samples", trace)
				}
				reps = append(reps, r)
			}
			for _, trace := range []bool{false, true} {
				got, err := aggregate(reps, trace, map[string]any{})
				if err != nil {
					t.Fatalf("aggregate trace=%v: %v", trace, err)
				}
				for k, v := range got {
					if k != "trace.overhead_pct" && !(v.Value > 0) && !strings.HasSuffix(k, "_frac") {
						t.Errorf("trace=%v: %s = %v, want > 0", trace, k, v.Value)
					}
				}
			}
			checkTraceFile(t, reps[1].Trace)
		})
	}
}

// checkTraceFile reads a written trace back and checks the self times it
// stores: for the spans whose children run one after another (the
// repetition and the probe sequence), self time plus the children's
// durations must equal the parent span.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Self  map[string]selfStat `json:"self"`
		Spans []span              `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rep", "probes"} {
		var parent *span
		for i := range doc.Spans {
			if doc.Spans[i].Name == name {
				parent = &doc.Spans[i]
			}
		}
		if parent == nil || doc.Self[name].Count != 1 {
			t.Fatalf("trace has no single %q span", name)
		}
		var children int64
		n := 0
		for _, s := range doc.Spans {
			if s.Parent == parent.ID {
				children += s.dur()
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%q has no children", name)
		}
		if got := doc.Self[name].SelfNS + children; got != parent.dur() {
			t.Errorf("%s: self %d + children %d = %d, want the span's %d",
				name, doc.Self[name].SelfNS, children, got, parent.dur())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	parent := span{Name: "p", ID: 1, Start: 0, End: 100}
	spans := []span{
		parent,
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 50, End: 70},
		{Name: "c", ID: 4, Parent: 3, Start: 55, End: 60},
	}
	st := selfTimes(spans)
	// Non-overlapping children: self plus the children's durations is the
	// parent's duration.
	if got := st["p"].SelfNS + spans[1].dur() + spans[2].dur(); got != parent.dur() {
		t.Fatalf("p: self %d + children = %d, want %d", st["p"].SelfNS, got, parent.dur())
	}
	if st["b"].SelfNS != 15 || st["c"].SelfNS != 5 || st["a"].SelfNS != 20 {
		t.Fatalf("self times %+v", st)
	}
	// Overlapping and out-of-range children count once and only inside
	// the parent.
	over := []span{
		{Name: "x", ID: 5, Parent: 1, Start: 20, End: 60},
		{Name: "y", ID: 6, Parent: 1, Start: 90, End: 130},
	}
	if got := covered(parent, append(spans[1:3], over...)); got != 70 {
		t.Fatalf("covered = %d, want 70 (10..70 and 90..100)", got)
	}
}

func TestCheckTablesCatchesLossAndDuplication(t *testing.T) {
	p := batchParams{Tram: tram.DefaultConfig(tram.SMP(1, 2, 2), tram.WPs), Updates: 500, Slots: 64, Seed: 3}
	want := replayTables(p)
	total := int64(4 * 500)
	clone := func() [][]int64 {
		got := make([][]int64, len(want))
		for i := range want {
			got[i] = append([]int64(nil), want[i]...)
		}
		return got
	}
	if err := checkTables(want, clone(), total); err != nil {
		t.Fatalf("intact tables: %v", err)
	}
	slot := 0
	for want[2][slot] == 0 {
		slot++
	}
	dropped := clone()
	dropped[2][slot]--
	if checkTables(want, dropped, total) == nil {
		t.Fatal("a dropped item passed the check")
	}
	dup := clone()
	dup[1][0]++
	if checkTables(want, dup, total) == nil {
		t.Fatal("a duplicated item passed the check")
	}
	moved := clone()
	moved[2][slot]--
	moved[3][0]++
	if checkTables(want, moved, total) == nil {
		t.Fatal("an item delivered to the wrong worker passed the check")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
