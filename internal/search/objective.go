package search

import (
	"fmt"
	"strconv"
)

// Direction states whether larger or smaller objective values are better.
// The paper's web-service metric (WIPS) is maximized; generic optimization
// literature minimizes. The kernel supports both.
type Direction int

const (
	// Maximize means higher performance values are better (e.g. WIPS).
	Maximize Direction = iota
	// Minimize means lower values are better (e.g. latency, runtime).
	Minimize
)

// String implements fmt.Stringer with the wire spellings ("max" / "min").
func (d Direction) String() string {
	if d == Minimize {
		return "min"
	}
	return "max"
}

// Better reports whether a is strictly better than b under the direction.
func (d Direction) Better(a, b float64) bool {
	if d == Maximize {
		return a > b
	}
	return a < b
}

// Objective measures the performance of one configuration. Measurements may
// be noisy and expensive; the kernel treats each call as one configuration
// exploration (the paper's unit of tuning time).
type Objective interface {
	Measure(cfg Config) float64
}

// ObjectiveFunc adapts a plain function to the Objective interface.
type ObjectiveFunc func(cfg Config) float64

// Measure calls f.
func (f ObjectiveFunc) Measure(cfg Config) float64 { return f(cfg) }

// FidelityObjective is an Objective that can also measure at reduced
// fidelity: a cheaper, noisier observation of the same configuration
// (shorter simulated horizon, fewer sampled requests). fidelity is in
// (0, 1]; MeasureAt(cfg, 1) must agree with Measure(cfg). Objectives that
// do not implement it are measured at full cost regardless of the
// requested fidelity.
type FidelityObjective interface {
	Objective
	MeasureAt(cfg Config, fidelity float64) float64
}

// FidelityObjectiveFunc adapts a fidelity-aware function to
// FidelityObjective; full-fidelity Measure delegates with fidelity 1.
type FidelityObjectiveFunc func(cfg Config, fidelity float64) float64

// Measure calls f at full fidelity.
func (f FidelityObjectiveFunc) Measure(cfg Config) float64 { return f(cfg, 1) }

// MeasureAt calls f.
func (f FidelityObjectiveFunc) MeasureAt(cfg Config, fidelity float64) float64 {
	return f(cfg, fidelity)
}

// FullFidelity reports whether f denotes a full-fidelity measurement.
// Zero means "unset" and is treated as full so the single-fidelity world
// never has to think about the field.
func FullFidelity(f float64) bool { return f == 0 || f >= 1 }

// Evaluation records one configuration exploration.
type Evaluation struct {
	Index  int     // 0-based exploration order
	Config Config  // the (snapped) configuration measured
	Perf   float64 // observed performance
	// Estimated reports that Perf came from the external layer's
	// estimation gate (§4.3) rather than a real measurement. Estimated
	// entries consume budget and steer the search like any committed
	// evaluation, but they are not ground truth: experience deposits
	// filter them out (see Trace.Measured).
	Estimated bool
	// Fidelity is the measurement fidelity (0 or 1 = full). Low-fidelity
	// observations are cheap but noisy triage data: experience deposits
	// filter them out (see Trace.Measured) so they never masquerade as
	// ground truth in the prior-run store.
	Fidelity float64
}

// Trace is the ordered history of explorations in one tuning session.
type Trace []Evaluation

// Measured returns the trace restricted to full-fidelity real
// measurements — entries the estimation gate answered and low-fidelity
// triage observations are dropped. Experience deposits use it so neither
// estimates nor noisy rung samples masquerade as ground truth in the
// prior-run store. When nothing needs filtering the receiver itself is
// returned (no copy).
func (t Trace) Measured() Trace {
	drop := 0
	for _, e := range t {
		if e.Estimated || !FullFidelity(e.Fidelity) {
			drop++
		}
	}
	if drop == 0 {
		return t
	}
	out := make(Trace, 0, len(t)-drop)
	for _, e := range t {
		if !e.Estimated && FullFidelity(e.Fidelity) {
			out = append(out, e)
		}
	}
	return out
}

// Best returns the best evaluation under dir. Real full-fidelity
// measurements are strictly preferred: neither a gate estimate (an
// unmeasured plane-fit answer, §4.3) nor a noisy low-fidelity triage
// observation can be the best while the trace holds any real measurement
// — claiming an estimate as a session's best is exactly the gated-best
// divergence BENCH_eval_cache.json recorded. Among the second-class
// entries, full-fidelity estimates outrank low-fidelity observations.
// Traces with neither gate nor triage entries are unaffected. It panics
// on an empty trace.
func (t Trace) Best(dir Direction) Evaluation {
	if len(t) == 0 {
		panic("search: Best of empty trace")
	}
	rank := func(e Evaluation) int {
		switch {
		case !FullFidelity(e.Fidelity):
			return 0
		case e.Estimated:
			return 1
		}
		return 2
	}
	best := t[0]
	bestRank := rank(best)
	for _, e := range t[1:] {
		switch r := rank(e); {
		case r > bestRank:
			best, bestRank = e, r
		case r == bestRank && dir.Better(e.Perf, best.Perf):
			best = e
		}
	}
	return best
}

// Worst returns the worst performance observed, the paper's Table 1
// "worst performance" column (how rough the tuning ride was).
func (t Trace) Worst(dir Direction) Evaluation {
	if len(t) == 0 {
		panic("search: Worst of empty trace")
	}
	worst := t[0]
	for _, e := range t[1:] {
		if dir.Better(worst.Perf, e.Perf) {
			worst = e
		}
	}
	return worst
}

// Perfs returns the raw performance series.
func (t Trace) Perfs() []float64 {
	out := make([]float64, len(t))
	for i, e := range t {
		out[i] = e.Perf
	}
	return out
}

// ConvergenceIteration returns the 1-based exploration index after which the
// best-so-far value never again improves by more than relTol (relative to
// the final best). This matches the paper's "convergence time (iterations)":
// the point where tuning has effectively finished even if the search keeps
// probing. Returns 0 for an empty trace.
func (t Trace) ConvergenceIteration(dir Direction, relTol float64) int {
	if len(t) == 0 {
		return 0
	}
	final := t.Best(dir).Perf
	tol := relTol * abs(final)
	// Find the earliest index where best-so-far is within tol of the final.
	best := t[0].Perf
	for i, e := range t {
		if dir.Better(e.Perf, best) {
			best = e.Perf
		}
		if !dir.Better(final, best) || abs(final-best) <= tol {
			return i + 1
		}
	}
	return len(t)
}

// BadIterations counts explorations whose performance falls below (for
// Maximize; above for Minimize) the given fraction of the final best. The
// paper reports "bad performance iterations" when comparing tuning with and
// without prior histories (§6.4).
func (t Trace) BadIterations(dir Direction, frac float64) int {
	if len(t) == 0 {
		return 0
	}
	best := t.Best(dir).Perf
	count := 0
	for _, e := range t {
		if dir == Maximize {
			if e.Perf < frac*best {
				count++
			}
		} else {
			if e.Perf > best/frac {
				count++
			}
		}
	}
	return count
}

// InitialWindow returns the first k evaluations (or the whole trace when it
// is shorter). The paper's Table 2 reports the mean and standard deviation of
// performance in the initial oscillation stage.
func (t Trace) InitialWindow(k int) Trace {
	if k > len(t) {
		k = len(t)
	}
	return t[:k]
}

// ExternalCache is the measure-once layer an Evaluator consults between
// its own per-session bookkeeping and the real objective: a cross-session
// (config, fidelity)→perf memo with singleflight coalescing, optionally
// backed by the §4.3 estimation gate (see the evalcache package).
//
// Lookup answers with a measured truth or a gate estimate (estimated).
// Claim asks, without blocking, for the truth of a point Lookup could not
// answer: ok returns one that arrived since; a non-nil wait is a peer's
// in-flight measurement, to Claim again (waited) once it closes; otherwise
// the caller leads and owes one Settle — measured, or !measured to abandon
// the point to its followers. Fidelity 0 (or ≥1) is full fidelity; a
// full-fidelity truth may answer a lower-fidelity probe, never the
// reverse. An Evaluator calls its layer from one goroutine at a time.
//
// External answers are committed exactly like measurements (budget charge,
// trace index, tracer event), so with a deterministic objective and
// exact-only answers the committed trajectory is byte-identical to an
// uncached run — only the number of real objective invocations drops.
type ExternalCache interface {
	Lookup(cfg Config, fidelity float64) (perf float64, estimated, ok bool)
	Claim(cfg Config, fidelity float64, waited bool) (perf float64, wait <-chan struct{}, ok bool)
	Settle(cfg Config, fidelity float64, perf float64, measured bool)
}

// Evaluator wraps an Objective with exploration counting, a snap-to-grid
// step, a deduplication cache and trace recording. The cache mirrors the
// tuning server's record of "all the parameter values together with the
// associated performance results" (§4.2): re-visiting a configuration does
// not cost another measurement.
type Evaluator struct {
	Space     *Space
	Objective Objective
	// MaxEvals, when > 0, bounds the number of distinct measurements; further
	// measurements return the cached value when available or an error.
	MaxEvals int
	// DisableCache forces re-measurement of repeated configurations (used by
	// the ablation bench to quantify the cache's value under noise).
	DisableCache bool
	// Tracer, when non-nil, receives an EventEval for every exploration
	// (fresh measurements and cache hits) and an EventSeed for every
	// training-stage injection. Events are emitted in commit order — even
	// for parallel batches — so the stream is deterministic for
	// deterministic objectives. Nil costs one branch per call.
	Tracer Tracer
	// External, when non-nil, is the measure-once layer consulted after a
	// local cache miss and budget check: an external answer (prior truth,
	// coalesced peer measurement, or gate estimate) is committed exactly
	// like a fresh measurement. Ignored when DisableCache is set (the
	// ablation mode re-measures everything by design).
	External ExternalCache

	cache map[string]float64
	trace Trace
	hits  int
	// keyBuf is the probe's reusable key scratch: probing the cache with
	// string(keyBuf) compiles to an allocation-free map lookup, so only a
	// committed measurement materializes its key string. Safe because an
	// evaluator is used from one goroutine at a time.
	keyBuf []byte

	// needs are the real measurements the open step waits on (see
	// kernel.go); lastID numbers them for Ask and Tell; open is the batch
	// round whose commits have not started, which Abort flushes.
	needs  []*need
	spare  *need
	lastID int
	open   *prefetch
}

// appendKey appends cfg's canonical key form (identical to Config.Key) to b.
func appendKey(b []byte, c Config) []byte {
	for i, v := range c {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// NewEvaluator returns an Evaluator over the space and objective.
func NewEvaluator(space *Space, obj Objective) *Evaluator {
	return &Evaluator{Space: space, Objective: obj, cache: map[string]float64{}}
}

// ErrBudget is returned by Eval when the exploration budget is exhausted.
var ErrBudget = fmt.Errorf("search: evaluation budget exhausted")

// Eval measures the configuration nearest to the continuous point pt.
// Cached configurations are free; fresh measurements append to the trace.
func (e *Evaluator) Eval(pt []float64) (Config, float64, error) {
	cfg := e.Space.Snap(pt)
	return e.EvalConfig(cfg)
}

// EvalConfig measures an exact grid configuration at full fidelity.
func (e *Evaluator) EvalConfig(cfg Config) (Config, float64, error) {
	return e.EvalConfigAt(cfg, 0)
}

// EvalConfigAt measures an exact grid configuration at the given fidelity
// (0 or ≥1 is full), inline on the caller's goroutine. Reduced fidelity
// keys the dedup cache on (config, fidelity) with promotion-aware reuse: a
// full-fidelity truth answers any probe, a low-fidelity observation never
// answers a full-fidelity one. Full-fidelity keys carry no suffix, so
// trajectories are byte-identical when multi-fidelity is off.
func (e *Evaluator) EvalConfigAt(cfg Config, fidelity float64) (Config, float64, error) {
	perf, n, err := e.probe(cfg, fidelity, nil)
	if err != nil {
		return nil, 0, err
	}
	if n != nil {
		Drive(NewMachine(e, nil), e, 1)
		perf = e.commitNeed(n)
	}
	return cfg, perf, nil
}

// probe is every kernel's evaluation step: it commits and returns an
// answer known without a measurement — a value of the prefetch round pf
// (nil for none), a cache hit, an External answer, checked with the budget
// in the sequential kernel's order — and otherwise queues a need, which
// the caller commits with commitNeed once it is told.
func (e *Evaluator) probe(cfg Config, fidelity float64, pf *prefetch) (float64, *need, error) {
	if !e.Space.Contains(cfg) {
		return 0, nil, fmt.Errorf("search: configuration %v not in space", cfg)
	}
	if FullFidelity(fidelity) {
		fidelity = 0
	}
	if pf != nil {
		key := cfg.Key()
		if _, cached := e.cache[key]; !cached {
			if n, ok := pf.value(key); ok {
				if e.exhausted() {
					return 0, nil, ErrBudget
				}
				e.commit(cfg, key, n.perf, n.estimated, 0)
				return n.perf, nil, nil
			}
		}
	}
	e.keyBuf = appendKey(e.keyBuf[:0], cfg)
	plain := len(e.keyBuf)
	if fidelity != 0 {
		e.keyBuf = appendFidelity(e.keyBuf, fidelity)
	}
	if !e.DisableCache {
		if perf, ok := e.cache[string(e.keyBuf[:plain])]; ok { // alloc-free lookup of the truth
			e.hit(cfg, perf, 0)
			return perf, nil, nil
		}
		if fidelity != 0 {
			if perf, ok := e.cache[string(e.keyBuf)]; ok { // same-rung repeat
				e.hit(cfg, perf, fidelity)
				return perf, nil, nil
			}
		}
	}
	if e.exhausted() {
		return 0, nil, ErrBudget
	}
	key := string(e.keyBuf)
	if perf, estimated, ok := e.lookup(cfg, fidelity); ok {
		e.commit(cfg, key, perf, estimated, fidelity)
		return perf, nil, nil
	}
	return 0, e.queue(cfg, key, fidelity), nil
}

// exhausted reports whether the evaluation budget is spent.
func (e *Evaluator) exhausted() bool { return e.MaxEvals > 0 && len(e.trace) >= e.MaxEvals }

// commitNeed commits a probe's told measurement. Its step is over, so the
// next need reuses it.
func (e *Evaluator) commitNeed(n *need) float64 {
	e.commit(n.cfg, n.key, n.perf, false, n.fidelity)
	e.spare = n
	return n.perf
}

// hit counts a probe answered from the cache and emits its tracer event.
// fidelity is that of the cached entry (0 for full).
func (e *Evaluator) hit(cfg Config, perf, fidelity float64) {
	e.hits++
	if e.Tracer != nil {
		Emit(e.Tracer, Event{Type: EventEval, Index: -1, Config: cfg.Clone(), Perf: perf, Cached: true, Fidelity: fidelity})
	}
}

// appendFidelity appends the (config, fidelity) cache-key suffix. Full
// fidelity never gets a suffix, so single-fidelity keys are untouched.
func appendFidelity(b []byte, f float64) []byte {
	b = append(b, '@')
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// external returns the measure-once layer, nil when none is wired or the
// cache is disabled (the ablation mode re-measures everything by design).
func (e *Evaluator) external() ExternalCache {
	if e.DisableCache {
		return nil
	}
	return e.External
}

// lookup asks the external measure-once layer, when one is wired, for a
// prior truth, a coalesced peer measurement or a gate estimate of cfg.
func (e *Evaluator) lookup(cfg Config, fidelity float64) (perf float64, estimated, ok bool) {
	if x := e.external(); x != nil {
		return x.Lookup(cfg, fidelity)
	}
	return 0, false, false
}

// rawMeasure calls the objective. Only a reduced-fidelity request
// shortens its horizon, and only when it implements FidelityObjective.
func (e *Evaluator) rawMeasure(cfg Config, fidelity float64) float64 {
	if fo, ok := e.Objective.(FidelityObjective); ok && fidelity != 0 {
		return fo.MeasureAt(cfg, fidelity)
	}
	return e.Objective.Measure(cfg)
}

// commit appends one evaluation to the cache (under its precomputed key)
// and trace and emits its tracer event. Commit order is the determinism
// guarantee: kernels commit in probe order, whatever order measurements
// are told in. The trace entry
// and the tracer event share one clone — both treat the configuration as
// immutable. A reduced-fidelity entry is cached under its fidelity-suffixed
// key only, so it never answers a full-fidelity probe, and it carries its
// fidelity so deposits and offline analysis can separate triage from
// truth.
func (e *Evaluator) commit(cfg Config, key string, perf float64, estimated bool, fidelity float64) {
	e.cache[key] = perf
	kept := cfg.Clone()
	e.trace = append(e.trace, Evaluation{Index: len(e.trace), Config: kept, Perf: perf, Estimated: estimated, Fidelity: fidelity})
	if e.Tracer != nil {
		Emit(e.Tracer, Event{Type: EventEval, Index: len(e.trace) - 1, Config: kept, Perf: perf, Estimated: estimated, Fidelity: fidelity})
	}
}

// Seed injects an already-known (configuration, performance) pair without
// consuming budget — the "training stage" replay of historical data (§4.2).
func (e *Evaluator) Seed(cfg Config, perf float64) error {
	if !e.Space.Contains(cfg) {
		return fmt.Errorf("search: seed configuration %v not in space", cfg)
	}
	e.cache[cfg.Key()] = perf
	Emit(e.Tracer, Event{Type: EventSeed, Index: -1, Config: cfg.Clone(), Perf: perf})
	return nil
}

// Count returns the number of real measurements performed.
func (e *Evaluator) Count() int { return len(e.trace) }

// Hits returns the number of probe requests answered from the cache
// (measurements the §4.2 record-keeping saved).
func (e *Evaluator) Hits() int { return e.hits }

// Trace returns a copy of the exploration history.
func (e *Evaluator) Trace() Trace {
	return append(Trace(nil), e.trace...)
}

// Known returns the cached performance for cfg, if present.
func (e *Evaluator) Known(cfg Config) (float64, bool) {
	perf, ok := e.cache[cfg.Key()]
	return perf, ok
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
