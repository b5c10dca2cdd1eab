package search

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// evalBatch drives one batch step — the kernels' initial simplex and
// shrink — through Drive with the given worker count and returns the
// committed prefix.
func evalBatch(ev *Evaluator, pts [][]float64, workers int) (cfgs []Config, perfs []float64, err error) {
	m := &Machine{ev: ev}
	m.next = func() {
		m.batch(pts, workers, func(p []float64, e error) {
			perfs, err = p, e
			m.Finish(nil, nil)
		})
	}
	Drive(m, ev, workers)
	for _, pt := range pts[:len(perfs)] {
		cfgs = append(cfgs, ev.Space.Snap(pt))
	}
	return cfgs, perfs, err
}

func TestEvalBatchSequentialMatchesEval(t *testing.T) {
	s, obj := quadSpace()
	evA := NewEvaluator(s, obj)
	evB := NewEvaluator(s, obj)
	pts := [][]float64{{10, 20, 30}, {40, 50, 60}, {10, 20, 30}, {5, 5, 5}}
	cfgs, perfs, err := evalBatch(evA, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		cfg, perf, err := evB.Eval(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Equal(cfgs[i]) || perf != perfs[i] {
			t.Fatalf("batch[%d] = %v/%v, sequential %v/%v", i, cfgs[i], perfs[i], cfg, perf)
		}
	}
	// The duplicate point must not cost an extra measurement.
	if evA.Count() != 3 {
		t.Errorf("Count = %d, want 3 (one duplicate)", evA.Count())
	}
}

// TestEvalBatchParallelDeterministic: a parallel batch commits, traces and
// counts cache hits exactly like the sequential path — in-batch duplicates
// and configurations cached before the batch included.
func TestEvalBatchParallelDeterministic(t *testing.T) {
	s, obj := quadSpace()
	pts := [][]float64{
		{10, 20, 30}, {40, 50, 60}, {70, 10, 90}, {10, 20, 30}, {5, 5, 5},
	}
	run := func(workers int) ([]Config, []float64, *Evaluator, []Event) {
		var tr CollectTracer
		ev := NewEvaluator(s, obj)
		ev.Tracer = &tr
		if _, _, err := ev.Eval([]float64{40, 50, 60}); err != nil {
			t.Fatal(err)
		}
		cfgs, perfs, err := evalBatch(ev, pts, workers)
		if err != nil {
			t.Fatal(err)
		}
		return cfgs, perfs, ev, tr.Events
	}
	sc, sp, serial, se := run(1)
	pc, pp, par, pe := run(4)
	if len(sc) != len(pc) {
		t.Fatalf("lengths differ: %d vs %d", len(sc), len(pc))
	}
	for i := range sc {
		if !sc[i].Equal(pc[i]) || sp[i] != pp[i] {
			t.Fatalf("parallel result %d differs: %v/%v vs %v/%v", i, pc[i], pp[i], sc[i], sp[i])
		}
	}
	// The traces must be identical (committed in input order).
	st, pt := serial.Trace(), par.Trace()
	if len(st) != len(pt) {
		t.Fatalf("trace lengths differ: %d vs %d", len(pt), len(st))
	}
	for i := range st {
		if !st[i].Config.Equal(pt[i].Config) {
			t.Fatalf("trace order differs at %d: %v vs %v", i, pt[i].Config, st[i].Config)
		}
	}
	if serial.Hits() != 2 || par.Hits() != serial.Hits() {
		t.Errorf("Hits: parallel %d, serial %d, want 2", par.Hits(), serial.Hits())
	}
	requireSameEvents(t, se, pe)
}

// requireSameEvents fails unless two event streams match event for event.
func requireSameEvents(t *testing.T, want, got []Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("event counts differ: serial %d, parallel %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Type != b.Type || a.Op != b.Op || a.Iter != b.Iter ||
			a.Index != b.Index || a.Perf != b.Perf || a.Cached != b.Cached ||
			!a.Config.Equal(b.Config) {
			t.Fatalf("event %d differs:\n  serial   %+v\n  parallel %+v", i, a, b)
		}
	}
}

func TestEvalBatchActuallyConcurrent(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	var inflight, maxInflight int32
	obj := ObjectiveFunc(func(c Config) float64 {
		cur := atomic.AddInt32(&inflight, 1)
		for {
			max := atomic.LoadInt32(&maxInflight)
			if cur <= max || atomic.CompareAndSwapInt32(&maxInflight, max, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		atomic.AddInt32(&inflight, -1)
		return float64(c[0])
	})
	ev := NewEvaluator(s, obj)
	pts := make([][]float64, 8)
	for i := range pts {
		pts[i] = []float64{float64(i * 10)}
	}
	if _, _, err := evalBatch(ev, pts, 4); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&maxInflight); got < 2 {
		t.Errorf("max concurrent measurements = %d, want >= 2", got)
	}
	if got := atomic.LoadInt32(&maxInflight); got > 4 {
		t.Errorf("max concurrent measurements = %d, want <= 4 workers", got)
	}
}

func TestEvalBatchBudgetTruncation(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 { return float64(c[0]) }))
	ev.MaxEvals = 2
	pts := [][]float64{{1}, {2}, {3}, {4}}
	cfgs, perfs, err := evalBatch(ev, pts, 3)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if len(cfgs) != 2 || len(perfs) != 2 {
		t.Fatalf("prefix length = %d, want 2", len(cfgs))
	}
	if cfgs[0][0] != 1 || cfgs[1][0] != 2 {
		t.Errorf("prefix = %v, want first two points", cfgs)
	}
	if ev.Count() != 2 {
		t.Errorf("Count = %d, want 2", ev.Count())
	}
}

func TestEvalBatchUsesCache(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	calls := 0
	var mu sync.Mutex
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 {
		mu.Lock()
		calls++
		mu.Unlock()
		return float64(c[0])
	}))
	if _, _, err := ev.EvalConfig(Config{5}); err != nil {
		t.Fatal(err)
	}
	_, _, err := evalBatch(ev, [][]float64{{5}, {6}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (config 5 cached)", calls)
	}
	if ev.Hits() == 0 {
		t.Error("cache hit not counted")
	}
}

func TestSynchronizedSerializes(t *testing.T) {
	var inflight, maxInflight int32
	raw := ObjectiveFunc(func(c Config) float64 {
		cur := atomic.AddInt32(&inflight, 1)
		if cur > atomic.LoadInt32(&maxInflight) {
			atomic.StoreInt32(&maxInflight, cur)
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&inflight, -1)
		return 0
	})
	obj := Synchronized(raw)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obj.Measure(Config{1})
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt32(&maxInflight); got != 1 {
		t.Errorf("max inflight through Synchronized = %d, want 1", got)
	}
}

func TestNelderMeadParallelMatchesSerial(t *testing.T) {
	s, obj := quadSpace()
	serial, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 150, Init: DistributedInit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 150, Init: DistributedInit{}, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial.BestPerf != parallel.BestPerf || !serial.BestConfig.Equal(parallel.BestConfig) {
		t.Errorf("parallel best %v@%v != serial best %v@%v",
			parallel.BestPerf, parallel.BestConfig, serial.BestPerf, serial.BestConfig)
	}
	if serial.Evals != parallel.Evals {
		t.Errorf("parallel evals %d != serial %d", parallel.Evals, serial.Evals)
	}
}

func TestNelderMeadParallelBudgetSmallerThanSimplex(t *testing.T) {
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 2, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 2 || res.Converged {
		t.Errorf("truncated parallel run: evals %d converged %v", res.Evals, res.Converged)
	}
}

// warmingExternal answers {30} only after its Measure has seen {10}, the
// way the estimation gate starts answering once enough truths surround a
// configuration.
type warmingExternal struct {
	mu   sync.Mutex
	seen map[int]bool
}

func (w *warmingExternal) Lookup(cfg Config, _ float64) (float64, bool, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cfg[0] == 30 && w.seen[10] {
		return 999, true, true
	}
	return 0, false, false
}

func (w *warmingExternal) Claim(Config, float64, bool) (float64, <-chan struct{}, bool) {
	return 0, nil, false
}

func (w *warmingExternal) Settle(cfg Config, _ float64, _ float64, measured bool) {
	w.mu.Lock()
	w.seen[cfg[0]] = measured
	w.mu.Unlock()
}

// TestEvalBatchTraceIndependentOfLatency: with a stateful External layer,
// a parallel batch commits the same trace whether {10} finishes before or
// after the other measurements, because every Lookup is asked in input
// order before the batch measures anything.
func TestEvalBatchTraceIndependentOfLatency(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	run := func(slow10 bool) Trace {
		ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 {
			if (c[0] == 10) == slow10 {
				time.Sleep(20 * time.Millisecond)
			}
			return float64(c[0])
		}))
		ev.External = &warmingExternal{seen: map[int]bool{}}
		if _, _, err := evalBatch(ev, [][]float64{{10}, {20}, {30}}, 2); err != nil {
			t.Fatal(err)
		}
		return ev.Trace()
	}
	slow, fast := run(true), run(false)
	if len(slow) != len(fast) {
		t.Fatalf("trace lengths differ: slow {10} %d, fast {10} %d", len(slow), len(fast))
	}
	for i := range slow {
		if !slow[i].Config.Equal(fast[i].Config) || slow[i].Perf != fast[i].Perf || slow[i].Estimated != fast[i].Estimated {
			t.Errorf("entry %d differs: slow {10} %+v, fast {10} %+v", i, slow[i], fast[i])
		}
	}
}
