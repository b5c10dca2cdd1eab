package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"reflect"
	"sort"
	"testing"
	"time"

	"harmony/internal/obs"
)

// TestTrajectoryPipelinedJSONL runs trajectory mode the way
// `hbench -json -target webservice -budget 60 -latency 5ms -workers 4`
// does — on the multi-point kernel — and checks the JSONL stream: it is
// non-empty, every record has exactly the keys iter, perf, best and
// elapsed_ms, iter rises by 1, and neither best nor elapsed_ms ever falls.
func TestTrajectoryPipelinedJSONL(t *testing.T) {
	rt := &obs.Runtime{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	var out bytes.Buffer
	// Defaults of -workload, -improved and -seed.
	if err := trajectory(rt, &out, "webservice", "ordering", 60, true, 0, 4, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"best", "elapsed_ms", "iter", "perf"}
	records := 0
	var prevIter, prevBest, prevElapsed float64
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r map[string]float64
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("record %d: %v: %s", records+1, err, sc.Bytes())
		}
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, wantKeys) {
			t.Fatalf("record %d keys = %v, want %v", records+1, keys, wantKeys)
		}
		if r["iter"] != prevIter+1 {
			t.Fatalf("iter gap at %v (previous iter %v)", r, prevIter)
		}
		if records > 0 && r["best"] < prevBest {
			t.Fatalf("best regressed at %v (previous best %v)", r, prevBest)
		}
		if r["elapsed_ms"] < prevElapsed {
			t.Fatalf("time went backwards at %v (previous %v ms)", r, prevElapsed)
		}
		prevIter, prevBest, prevElapsed = r["iter"], r["best"], r["elapsed_ms"]
		records++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if records == 0 {
		t.Fatal("empty trajectory")
	}
}
