package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"reflect"
	"sort"
	"testing"

	"harmony/internal/obs"
)

// timingFields are the report fields that depend on the machine and its
// load rather than on the code; every other field must regenerate exactly.
var timingFields = map[string]bool{"wall_ms": true, "saved_seconds": true}

// TestCommittedBenchFilesFresh regenerates each committed BENCH_*.json
// with main's flag defaults and requires every non-timing field to equal
// the committed file, so a change that moves a committed figure has to
// regenerate it.
func TestCommittedBenchFilesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates three benchmarks")
	}
	rt := &obs.Runtime{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	// Defaults of -target, -seed, -budget, -latency,
	// -gate-truth-check-every and -workload.
	benches := []struct {
		file string
		gen  func(w io.Writer) error
	}{
		{"BENCH_eval_cache.json", func(w io.Writer) error { return cacheBench(rt, w, "webservice", 0, 120, 0, 16) }},
		{"BENCH_drift.json", func(w io.Writer) error { return driftBench(rt, w, 0, 120) }},
		{"BENCH_fidelity.json", func(w io.Writer) error { return fidelityBench(rt, w, "ordering", 0, 120) }},
	}
	for _, b := range benches {
		t.Run(b.file, func(t *testing.T) {
			committed, err := os.ReadFile("../../" + b.file)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			if err := b.gen(&fresh); err != nil {
				t.Fatal(err)
			}
			var want, got any
			if err := json.Unmarshal(committed, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(fresh.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			for _, d := range jsonDiff("", want, got) {
				t.Errorf("%s: %s", b.file, d)
			}
		})
	}
}

// jsonDiff lists the paths at which two decoded JSON values differ,
// ignoring timingFields.
func jsonDiff(path string, want, got any) []string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := map[string]bool{}
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			if !timingFields[k] {
				sorted = append(sorted, k)
			}
		}
		sort.Strings(sorted)
		var diffs []string
		for _, k := range sorted {
			diffs = append(diffs, jsonDiff(path+"."+k, w[k], g[k])...)
		}
		return diffs
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			break
		}
		var diffs []string
		for i := range w {
			diffs = append(diffs, jsonDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i])...)
		}
		return diffs
	}
	if reflect.DeepEqual(want, got) {
		return nil
	}
	return []string{fmt.Sprintf("%s: committed %v, regenerated %v", path, want, got)}
}
