package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// shortRun sets up a fresh program and runs one pass over a short op
// list of the workload, the way a benchmark run does.
func shortRun(t *testing.T, w workload, seed int64) *tally {
	t.Helper()
	ops, err := w.ops(seed, w.warm, w.timed)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := setup(&w, ops, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := newTally()
	pass(&w, ops, r, nil, tl)
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	if len(tl.wrong) > 0 || tl.failed > 0 {
		t.Fatalf("%s: %d failed ops, wrong verdicts: %v", w.name, tl.failed, tl.wrong)
	}
	return tl
}

// short shrinks a workload's op list for the self-tests.
func short(w workload) workload {
	if w.name == "batch-shard" {
		w.warm, w.timed = 2, 12
	} else {
		w.timed = 60
	}
	return w
}

// TestWorkIsDeterministic runs every workload twice on the same seed:
// the per-class op counts and the per-family decided counts must match,
// so run-to-run differences can only be timing.
func TestWorkIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := short(w)
		t.Run(w.name, func(t *testing.T) {
			a, b := shortRun(t, w, 7), shortRun(t, w, 7)
			if !reflect.DeepEqual(a.classOps, b.classOps) {
				t.Errorf("class op counts differ: %v vs %v", a.classOps, b.classOps)
			}
			if !reflect.DeepEqual(a.familyDecided, b.familyDecided) {
				t.Errorf("per-family decided counts differ: %v vs %v", a.familyDecided, b.familyDecided)
			}
			if a.decided == 0 {
				t.Errorf("nothing decided")
			}
		})
	}
}

// TestFullListsLeaveTenBeyondP99 checks every full op list is long
// enough that one pass leaves at least ten ops beyond p99.
func TestFullListsLeaveTenBeyondP99(t *testing.T) {
	for _, w := range workloads {
		ops, err := w.ops(3, w.warm, w.timed)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(ops) - w.warm; got != w.timed {
			t.Errorf("%s: %d timed ops, want %d", w.name, got, w.timed)
		}
		lat := make([]float64, w.timed)
		for i := range lat {
			lat[i] = float64(i)
		}
		p99 := percentile(lat, 0.99)
		beyond := 0
		for _, v := range lat {
			if v > p99 {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("%s: %d ops beyond p99, want ≥10", w.name, beyond)
		}
	}
}

// TestListsAreStratified checks that two seeds give the same class mix
// and, for solve-whole, that the unsat and optimize shares hold and the
// oracle labels every conflicting conjunction unsat.
func TestListsAreStratified(t *testing.T) {
	for _, w := range workloads {
		a, err := w.ops(1, w.warm, w.timed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.ops(2, w.warm, w.timed)
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := classCounts(a), classCounts(b)
		for c, n := range ca {
			if d := n - cb[c]; d*d > (n/50+2)*(n/50+2) {
				t.Errorf("%s: class %s has %d ops on seed 1 and %d on seed 2", w.name, c, n, cb[c])
			}
		}
	}
	ops, err := wholeOps(5, len(wholeTemplate), 1000)
	if err != nil {
		t.Fatal(err)
	}
	fam := map[string]int{}
	for _, o := range ops[len(wholeTemplate):] {
		in := o.items[0]
		fam[in.family]++
		if in.family == "unsat" && in.label != labelUnsat {
			t.Errorf("conflicting conjunction %s not labelled unsat", in.hard.Name())
		}
	}
	if fam["unsat"] != 100 || fam["optimize"] != 100 {
		t.Errorf("solve-whole has %d unsat and %d optimize ops per 1000, want 100 each", fam["unsat"], fam["optimize"])
	}
	for _, o := range batchOps(5, 0, 3) {
		if len(o.items) != batchSize {
			t.Errorf("batch of %d members, want %d", len(o.items), batchSize)
		}
	}
}

func classCounts(ops []op) map[string]int {
	out := map[string]int{}
	for _, o := range ops {
		out[o.class]++
	}
	return out
}

// TestSelfTimeSubtractsCoveredChildren pins the self-time rule: a span's
// duration minus the union of its children's intervals, clipped to it.
func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("op", 0, 0, at(0), at(10))
	tr.record("a", 0, root, at(1), at(4))
	tr.record("b", 0, root, at(3), at(6))  // overlaps a
	tr.record("c", 0, root, at(8), at(14)) // runs past the parent
	self := tr.selfByName()
	if want := 3 * time.Millisecond; self["op"] != want {
		t.Errorf("op self time %v, want %v", self["op"], want)
	}
	if want := 6 * time.Millisecond; self["c"] != want {
		t.Errorf("leaf self time %v, want its duration %v", self["c"], want)
	}
}

// TestReportMatchesBenchmarkJSON checks the benchmark prints exactly the
// workloads and metrics BENCHMARK.json names, with the same units.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json names %v", names, specNames)
	}

	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	e2e, err := endToEnd(&tally{lat: lat, ops: len(lat), elapsed: time.Second}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]metric{}
	for name, v := range layerMetrics(tracedPass{}) {
		layers[name] = metric{v, layerUnit(name)}
	}
	for _, c := range []struct {
		what string
		got  map[string]metric
		want []entry
	}{{"end-to-end", e2e, spec.EndToEnd}, {"per-layer", layers, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json names %d", c.what, len(c.got), len(c.want))
		}
		for _, e := range c.want {
			if m, ok := c.got[e.Name]; !ok {
				t.Errorf("%s metric %s is not printed", c.what, e.Name)
			} else if m.Unit != e.Unit {
				t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", c.what, e.Name, m.Unit, e.Unit)
			}
		}
	}
}
