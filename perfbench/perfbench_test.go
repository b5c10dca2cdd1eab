package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json at the repository root
// the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// metricNames returns the declared names, sorted, after checking each
// unit against perfbench's.
func metricNames(t *testing.T, declared []struct{ Name, Unit string }, units map[string]string) []string {
	t.Helper()
	var out []string
	for _, m := range declared {
		out = append(out, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, perfbench %q", m.Name, m.Unit, units[m.Name])
		}
	}
	sort.Strings(out)
	return out
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// short runs a workload for its minimum number of episodes.
func short(t *testing.T, workload string, seed uint64, trace bool) (*harness, *result) {
	t.Helper()
	w, err := workloadFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{w: w, name: workload, seed: seed, trace: trace, out: t.TempDir()}
	res, err := h.run()
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("%s trace=%v: %d of %d sessions failed", workload, trace, res.Failed, res.Attempted)
	}
	return h, res
}

// TestSmoke runs every workload briefly, untraced and traced: no session
// may fail, the workloads BENCHMARK.json runs must pass their correctness
// checks, and the metric names must be exactly BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	endToEnd := metricNames(t, spec.EndToEnd, endToEndUnits)
	perLayer := metricNames(t, spec.PerLayer, perLayerUnits)
	benched := map[string]bool{}
	for _, w := range spec.Workloads {
		benched[w.Name] = true
	}
	for _, name := range []string{"serial", "fleet", "prior-runs", "prior-runs-nocache", "retune-gated"} {
		for _, trace := range []bool{false, true} {
			h, res := short(t, name, 7, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := names(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json has %v", name, trace, got, want)
			}
			if benched[name] && !res.Correct {
				t.Errorf("%s trace=%v: correctness violations %v", name, trace, h.violations)
			}
		}
	}
}

// TestDeterminism checks that a seed fixes the schedule and the
// deterministic metrics, traced or not, and that another seed changes the
// schedule. retune-gated's concurrent sessions share a cache, so only its
// schedule is compared.
func TestDeterminism(t *testing.T) {
	determ := func(name string, seed uint64, trace bool) map[string]interface{} {
		h, _ := short(t, name, seed, trace)
		return h.determ()
	}
	for _, name := range []string{"serial", "fleet", "prior-runs", "prior-runs-nocache", "retune-gated"} {
		a := determ(name, 7, false)
		b := determ(name, 7, true)
		c := determ(name, 8, false)
		if name == "retune-gated" {
			a, b = map[string]interface{}{"schedule": a["schedule"]}, map[string]interface{}{"schedule": b["schedule"]}
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 ran twice with different results:\n%v\n%v", name, a, b)
		}
		if a["schedule"] == c["schedule"] {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %v", name, a["schedule"])
		}
	}
}
