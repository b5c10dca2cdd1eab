package search

import (
	"sync"
)

// Synchronized wraps an Objective with a mutex so it can be handed to the
// parallel evaluation paths even when the underlying measurement function
// is not safe for concurrent use (for example because it draws from a
// shared noise source). The wrapper serializes measurements, so it protects
// correctness, not speed — measurement functions that are naturally
// concurrent-safe should be passed directly.
func Synchronized(obj Objective) Objective {
	var mu sync.Mutex
	return ObjectiveFunc(func(cfg Config) float64 {
		mu.Lock()
		defer mu.Unlock()
		return obj.Measure(cfg)
	})
}

// EvalBatch measures the configurations nearest to the given points, running
// up to workers measurements concurrently (sequentially when workers <= 1).
// The returned slices follow the input order for the longest prefix the
// evaluation budget allows; when the budget truncates the batch, err is
// ErrBudget and the slices cover the measured prefix.
//
// It is one concurrent round (see Speculate) followed by EvalSpeculated
// over the input in order, so cache and trace bookkeeping replay the
// sequential path exactly: results are committed in input order
// regardless of measurement completion order, and duplicate
// configurations within the batch are measured once. With an External
// layer, every Lookup is asked in input order before the batch measures
// anything, so a stateful layer (the estimation gate) answers the same way
// whatever order the measurements finish in, and the committed trace does
// not depend on measurement latency. The Objective must be safe for
// concurrent use when workers > 1 (wrap with Synchronized if not).
// EvalBatch itself must not be called concurrently with other Evaluator
// methods.
//
// A panic in any worker must unwind the caller's goroutine, not crash the
// process: the server's blocking objective panics errAborted when a client
// disconnects mid-batch, and that panic flows through here. Every cleanly
// measured configuration is still committed — the panic path only arises
// when the session is dying, and the partial trace the server deposits
// should keep every measurement the client paid for, regardless of where
// in the batch the disconnect struck. The first (lowest-index) panic then
// re-raises, which keeps propagation deterministic.
func (e *Evaluator) EvalBatch(pts [][]float64, workers int) ([]Config, []float64, error) {
	spec := e.round(pts, workers)
	cfgs := make([]Config, 0, len(pts))
	perfs := make([]float64, 0, len(pts))
	var err error
	for _, pt := range pts {
		if spec != nil && spec.failed != nil {
			key := e.Space.Snap(pt).Key()
			if spec.failed[key] {
				continue
			}
			_, known := spec.perfs[key]
			if _, cached := e.cache[key]; !known && !cached {
				break // past the round's budget cap: never measure on a dying session
			}
		}
		var cfg Config
		var perf float64
		if cfg, perf, err = e.EvalSpeculated(pt, spec); err != nil {
			break
		}
		cfgs = append(cfgs, cfg)
		perfs = append(perfs, perf)
	}
	if spec != nil && spec.panic != nil {
		panic(spec.panic)
	}
	return cfgs, perfs, err
}

// runWorkers runs fn(i) for every i in [0, n) on up to `workers` concurrent
// goroutines and waits for all of them. Panics inside fn are captured
// per-index and returned (nil entries mean clean completion) so the caller
// can re-raise on its own goroutine — a panicking objective must unwind the
// caller, never crash the process from an anonymous goroutine. When several
// workers panic, the caller conventionally re-raises the lowest index,
// which keeps panic propagation deterministic.
func runWorkers(n, workers int, fn func(i int)) []any {
	if n <= 0 {
		return nil
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if rec := recover(); rec != nil {
					panics[i] = rec
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	return panics
}

// Speculation holds one round of concurrently measured candidate values
// that have not been committed to the evaluator: no budget was consumed, no
// trace entries were appended, and the cache is untouched. Commit happens
// selectively through EvalSpeculated. The zero value (or a nil or empty
// speculation) is valid and makes EvalSpeculated equivalent to Eval.
//
// When the evaluator carries an External measure-once layer, every value a
// speculative round measures is remembered by that layer even if the round
// never commits it — so a candidate measured, discarded, and probed again
// iterations (or sessions) later costs nothing the second time.
type Speculation struct {
	perfs map[string]float64
	est   map[string]bool // keys answered by the estimation gate
	// failed marks candidates whose measurement panicked (nil when none);
	// panic is the lowest-index candidate's panic value.
	failed map[string]bool
	panic  any
}

// Len reports how many distinct configurations the round measured.
func (s *Speculation) Len() int {
	if s == nil {
		return 0
	}
	return len(s.perfs)
}

// round is the evaluator's one concurrent measurement round. It snaps the
// points and, in input order, skips duplicates and cached configurations,
// caps the rest at the remaining evaluation budget (an External answer
// counts: it commits like a measurement) and asks External.Lookup about
// each, serially, before anything is measured. The candidates the layer
// could not answer are measured concurrently on up to workers goroutines.
// Nothing is committed; a panicking candidate is recorded in failed, and
// the first one in input order in panic. With workers <= 1 (or a disabled
// cache, whose re-measure-everything semantics have no concurrent
// equivalent) it returns nil without allocating.
func (e *Evaluator) round(pts [][]float64, workers int) *Speculation {
	if workers <= 1 || e.DisableCache {
		return nil
	}
	remaining := len(pts)
	if e.MaxEvals > 0 {
		remaining = max(e.MaxEvals-len(e.trace), 0)
	}
	spec := &Speculation{perfs: map[string]float64{}, est: map[string]bool{}}
	var need []Config
	for _, pt := range pts {
		if remaining == 0 {
			break
		}
		cfg := e.Space.Snap(pt)
		key := cfg.Key()
		if _, ok := e.cache[key]; ok {
			continue
		}
		if _, ok := spec.perfs[key]; ok {
			continue
		}
		remaining--
		perf, est, ok := e.lookup(cfg, 0)
		spec.perfs[key], spec.est[key] = perf, est
		if !ok {
			need = append(need, cfg)
		}
	}
	perfs := make([]float64, len(need))
	panics := runWorkers(len(need), workers, func(i int) {
		perfs[i] = e.measure(need[i], 0)
	})
	for i, cfg := range need {
		key := cfg.Key()
		if panics[i] == nil {
			spec.perfs[key] = perfs[i]
			continue
		}
		delete(spec.perfs, key)
		if spec.failed == nil {
			spec.failed, spec.panic = map[string]bool{}, panics[i]
		}
		spec.failed[key] = true
	}
	return spec
}

// Speculate concurrently measures every not-yet-cached configuration among
// the snapped candidate points, without committing anything. The simplex
// kernel uses it to overlap the measurements of all the candidates one
// iteration may need (reflection, expansion, both contractions) and then —
// via EvalSpeculated — commits only the ones the sequential algorithm
// actually probes, in the sequential order. For deterministic objectives
// the committed cache, trace, budget accounting and tracer stream are
// therefore byte-identical to the sequential kernel; only wall-clock
// changes. Candidates beyond the remaining evaluation budget are not
// measured (the sequential kernel could never commit them). The Objective
// must be safe for concurrent use; a panic in any measurement goroutine is
// re-raised on the caller's goroutine. With workers <= 1 (or a disabled
// cache) the round is nil and probes fall back to real evaluations.
func (e *Evaluator) Speculate(pts [][]float64, workers int) *Speculation {
	spec := e.round(pts, workers)
	if spec != nil && spec.panic != nil {
		panic(spec.panic) // nothing was committed; unwind the caller
	}
	return spec
}

// EvalSpeculated is Eval, except that when this round's speculation already
// measured the configuration the stored value is committed instead of
// calling the objective again. Commit semantics — cache entry, trace
// append, budget charge, tracer event — are identical to a fresh Eval, so
// traces cannot distinguish a speculated measurement from a sequential one.
func (e *Evaluator) EvalSpeculated(pt []float64, spec *Speculation) (Config, float64, error) {
	cfg := e.Space.Snap(pt)
	if spec != nil && !e.DisableCache {
		key := cfg.Key()
		if _, cached := e.cache[key]; !cached {
			if perf, ok := spec.perfs[key]; ok {
				if e.MaxEvals > 0 && len(e.trace) >= e.MaxEvals {
					return nil, 0, ErrBudget
				}
				e.commit(cfg, key, perf, spec.est[key], 0)
				return cfg, perf, nil
			}
		}
	}
	return e.EvalConfig(cfg)
}
