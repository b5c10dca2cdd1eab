package search

import (
	"fmt"
)

// NelderMeadOptions configures the simplex search.
type NelderMeadOptions struct {
	// Init selects the initial simplex strategy. Defaults to ExtremeInit
	// (the original Active Harmony behaviour) when nil.
	Init InitStrategy
	// Direction states whether the objective is maximized or minimized.
	Direction Direction
	// MaxEvals bounds the number of distinct configuration measurements.
	// Defaults to 200 when zero.
	MaxEvals int
	// RelTol terminates the search when the relative performance spread of
	// the simplex falls below it. Defaults to 1e-3 when zero.
	RelTol float64
	// MaxStall terminates after this many consecutive iterations without
	// improvement of the best vertex. Defaults to 4*dim when zero.
	MaxStall int
	// Parallel, when > 1, measures the embarrassingly parallel phases (the
	// initial simplex and shrink steps) with this many concurrent
	// objective calls and parallelizes the main loop. Spaces wide enough
	// for a multi-point width above 1 (Parallel/2, capped at dim/2) switch
	// to the multi-point simplex, which updates several vertices per
	// concurrent round (deterministic, but a different trajectory).
	// Narrower spaces turn each iteration into a single speculative
	// measurement round: the reflection, expansion and both contraction
	// candidates are measured concurrently (see Evaluator.Speculate) and
	// only the sequentially probed ones are committed, so results — best
	// configuration, trace, budget accounting — are identical to the
	// sequential kernel's for deterministic objectives; only wall-clock
	// changes. The objective must be safe for concurrent use either way
	// (see Synchronized).
	Parallel int
	// Restarts re-runs the search this many additional times after it
	// converges, each restart building a fresh distributed simplex centred
	// on the best point found so far at half the previous scale. Restarts
	// share the evaluation budget and cache; they help escape a prematurely
	// collapsed simplex at no cost when the first run already used the
	// budget.
	Restarts int
	// ExtraRestart, when non-nil, is polled once the search (including the
	// planned Restarts) has converged with budget remaining; returning true
	// funds one more reduced-scale restart around the incumbent best, then
	// the hook is polled again. The server's control plane wires an
	// operator's re-tune request here, so a live session can be steered
	// back into exploration without a protocol change. Each extra restart
	// is announced by an EventPhase "retune" on the trace stream.
	ExtraRestart func() bool

	// Standard Nelder–Mead coefficients; zero values take the textbook
	// defaults (reflection 1, expansion 2, contraction 0.5, shrink 0.5).
	Reflection  float64
	Expansion   float64
	Contraction float64
	Shrink      float64

	// Tracer, when non-nil, receives an EventSimplex for every operation
	// (reflect/expand/contract/shrink), an EventConverge for the
	// termination decision, and an EventPhase per restart. Evaluation
	// events come from the Evaluator's own Tracer (NelderMead wires the
	// same tracer into the evaluator it creates; with
	// NelderMeadWithEvaluator the caller controls both). Nil costs one
	// branch per emission site.
	Tracer Tracer
}

func (o *NelderMeadOptions) fill(dim int) {
	if o.Init == nil {
		o.Init = ExtremeInit{}
	}
	if o.MaxEvals == 0 {
		o.MaxEvals = 200
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-3
	}
	if o.MaxStall == 0 {
		o.MaxStall = 4 * dim
	}
	if o.Reflection == 0 {
		o.Reflection = 1
	}
	if o.Expansion == 0 {
		o.Expansion = 2
	}
	if o.Contraction == 0 {
		o.Contraction = 0.5
	}
	if o.Shrink == 0 {
		o.Shrink = 0.5
	}
}

// Result summarizes a tuning session.
type Result struct {
	BestConfig Config
	BestPerf   float64
	Trace      Trace
	Evals      int // number of real measurements (explorations)
	Converged  bool
}

// vertex pairs a continuous simplex point with its measured performance.
type vertex struct {
	pt   []float64
	perf float64
}

// sortVertices orders a simplex best-to-worst under better. It is a stable
// insertion sort: the simplex has dim+1 vertices (a handful), and the kernel
// re-sorts every iteration, so avoiding sort.SliceStable's per-call closure
// and reflection swapper keeps the iteration allocation-free.
func sortVertices(verts []vertex, better func(a, b float64) bool) {
	for i := 1; i < len(verts); i++ {
		v := verts[i]
		j := i - 1
		for j >= 0 && better(v.perf, verts[j].perf) {
			verts[j+1] = verts[j]
			j--
		}
		verts[j+1] = v
	}
}

// NelderMead runs the adapted simplex search over the space.
//
// The algorithm is Nelder & Mead (1965) with the paper's discrete
// adaptation: every probe point is evaluated at the nearest integer grid
// configuration (§2). Because the space is bounded, probe points are clamped
// into the box before snapping.
func NelderMead(space *Space, obj Objective, opts NelderMeadOptions) (*Result, error) {
	dim := space.Dim()
	opts.fill(dim)
	ev := NewEvaluator(space, obj)
	ev.MaxEvals = opts.MaxEvals
	ev.Tracer = opts.Tracer
	return nelderMeadWithRestarts(space, ev, opts)
}

// NelderMeadWithEvaluator runs the search against a caller-managed
// evaluator, letting callers pre-seed historical measurements (§4.2) or
// share a budget across stages.
func NelderMeadWithEvaluator(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	opts.fill(space.Dim())
	return nelderMeadWithRestarts(space, ev, opts)
}

// nelderMeadWithRestarts runs the kernel, then optionally restarts from the
// best point found with progressively tighter fresh simplexes, sharing the
// evaluator (budget, cache and trace accumulate across restarts). The
// planned Restarts come first; after them ExtraRestart is polled, so a
// re-tune request arriving mid-run takes effect at the next natural
// stopping point. Budget exhaustion (or an empty trace) ends both kinds:
// restarting is futile then.
func nelderMeadWithRestarts(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	res, err := nelderMead(space, ev, opts)
	scale := 0.5
	for r := 1; err == nil && res.Converged && len(res.BestConfig) > 0; r++ {
		switch {
		case r <= opts.Restarts:
			emit(opts.Tracer, Event{Type: EventPhase, Op: "restart", Iter: r, Perf: res.BestPerf})
		case opts.ExtraRestart != nil && opts.ExtraRestart():
			emit(opts.Tracer, Event{Type: EventPhase, Op: "retune", Perf: res.BestPerf})
		default:
			return res, nil
		}
		restartOpts := opts
		restartOpts.Init = scaledInit{
			center: space.Continuous(res.BestConfig),
			frac:   scale,
		}
		res, err = nelderMead(space, ev, restartOpts) // the shared trace spans all restarts
		scale /= 2
	}
	return res, err
}

// scaledInit builds a distributed simplex spanning frac of each parameter's
// range, centred on a given point (used by restarts).
type scaledInit struct {
	center []float64
	frac   float64
}

// Name implements InitStrategy.
func (s scaledInit) Name() string { return "scaled-distributed" }

// Initial implements InitStrategy.
func (s scaledInit) Initial(space *Space) [][]float64 {
	dim := space.Dim()
	n := dim + 1
	pts := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j, p := range space.Params {
			span := float64(p.Max-p.Min) * s.frac
			offset := (float64((i+j)%n)+0.5)/float64(n) - 0.5
			v[j] = s.center[j] + span*offset
		}
		pts[i] = clampPoint(space, v)
	}
	return pts
}

// nelderMead runs one simplex search on the kernel the options select:
// the multi-point kernel when the multi-point width exceeds 1, the
// single-vertex kernel otherwise.
func nelderMead(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	if p := opts.pbest(space.Dim()); p > 1 {
		return nelderMeadMultiPoint(space, ev, opts, p)
	}
	return nelderMeadSingle(space, ev, opts)
}

// simplex is the scaffold the single-vertex and multi-point kernels share:
// the vertex set (sorted best to worst between iterations) and the
// evaluator that measures it.
type simplex struct {
	space *Space
	ev    *Evaluator
	opts  NelderMeadOptions
	verts []vertex
}

// runSimplex measures the initial simplex as one batch, then calls iterate
// once per iteration until the simplex converges — its relative spread
// falls below RelTol, or MaxStall iterations pass without improving the
// best vertex — or iterate reports the budget exhausted. It emits the
// termination decision (with note appended to the evals count) and
// returns the result and the final iteration.
func runSimplex(space *Space, ev *Evaluator, opts NelderMeadOptions, note string, iterate func(s *simplex, iter int) bool) (*Result, int, error) {
	dim := space.Dim()
	initPts := opts.Init.Initial(space)
	if len(initPts) != dim+1 {
		return nil, 0, fmt.Errorf("search: init strategy %q produced %d vertices, want %d",
			opts.Init.Name(), len(initPts), dim+1)
	}
	clamped := make([][]float64, len(initPts))
	for i, pt := range initPts {
		clamped[i] = clampPoint(space, pt)
	}
	_, initPerfs, err := ev.EvalBatch(clamped, opts.Parallel)
	budgetHit := err == ErrBudget
	if err != nil && !budgetHit {
		return nil, 0, err
	}
	s := &simplex{space: space, ev: ev, opts: opts, verts: make([]vertex, 0, dim+1)}
	for i, perf := range initPerfs {
		s.verts = append(s.verts, vertex{pt: clamped[i], perf: perf})
	}

	// finish records the kernel's termination decision before returning.
	finish := func(reason string, iter int, converged bool) (*Result, int, error) {
		res := &Result{Trace: ev.Trace(), Converged: converged}
		if len(res.Trace) > 0 {
			best := res.Trace.Best(opts.Direction)
			res.BestConfig, res.BestPerf, res.Evals = best.Config.Clone(), best.Perf, ev.Count()
		}
		emit(opts.Tracer, Event{
			Type: EventConverge, Op: reason, Iter: iter,
			Perf: res.BestPerf, Config: res.BestConfig,
			Note: fmt.Sprintf("evals=%d", res.Evals) + note,
		})
		return res, iter, nil
	}
	if budgetHit || len(s.verts) < dim+1 {
		return finish("init_budget", 0, false)
	}

	s.sort()
	stall := 0
	prevBest := s.verts[0].perf
	for iter := 0; ; iter++ {
		// Convergence: relative spread between best and worst vertex.
		bestV, worstV := s.verts[0].perf, s.verts[len(s.verts)-1].perf
		spread := abs(bestV - worstV)
		scale := abs(bestV) + abs(worstV)
		if scale > 0 && spread/scale < opts.RelTol {
			return finish("reltol", iter, true)
		}
		if stall >= opts.MaxStall {
			return finish("stall", iter, true)
		}
		if !iterate(s, iter) {
			return finish("budget", iter, false)
		}
		s.sort()
		if s.better(s.verts[0].perf, prevBest) {
			prevBest = s.verts[0].perf
			stall = 0
		} else {
			stall++
		}
	}
}

func (s *simplex) better(a, b float64) bool { return s.opts.Direction.Better(a, b) }

func (s *simplex) sort() { sortVertices(s.verts, s.better) }

// step records one simplex operation for the tracer.
func (s *simplex) step(op string, iter int, perf float64, note string) {
	emit(s.opts.Tracer, Event{Type: EventSimplex, Op: op, Iter: iter, Perf: perf, Note: note})
}

// centroid returns the centroid of the best keep vertices.
func (s *simplex) centroid(keep int) []float64 {
	c := make([]float64, s.space.Dim())
	for _, v := range s.verts[:keep] {
		for j := range c {
			c[j] += v.pt[j]
		}
	}
	for j := range c {
		c[j] /= float64(keep)
	}
	return c
}

// shrink moves every vertex but the best toward the best and re-measures
// them as one batch. It reports false when the budget ran out.
func (s *simplex) shrink(iter int) bool {
	verts := s.verts
	bestPt := verts[0].pt
	shrunk := make([][]float64, 0, len(verts)-1)
	for i := 1; i < len(verts); i++ {
		for j := range verts[i].pt {
			verts[i].pt[j] = bestPt[j] + s.opts.Shrink*(verts[i].pt[j]-bestPt[j])
		}
		shrunk = append(shrunk, verts[i].pt)
	}
	_, perfs, err := s.ev.EvalBatch(shrunk, s.opts.Parallel)
	if err != nil || len(perfs) < len(shrunk) {
		return false
	}
	for i := 1; i < len(verts); i++ {
		verts[i].perf = perfs[i-1]
	}
	s.step(OpShrink, iter, verts[0].perf, fmt.Sprintf("re-measured %d vertices", len(shrunk)))
	return true
}

// moveFrom returns centroid + coef*(centroid - from).
func moveFrom(centroid, from []float64, coef float64) []float64 {
	pt := make([]float64, len(centroid))
	for j := range pt {
		pt[j] = centroid[j] + coef*(centroid[j]-from[j])
	}
	return pt
}

// nelderMeadSingle is the single-vertex simplex kernel. It commits the
// sequential algorithm's trajectory; with opts.Parallel > 1 the initial
// simplex and shrink steps are measured as one EvalBatch and each
// iteration's candidates as one speculative round.
func nelderMeadSingle(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	probe := func(spec *Speculation, pt []float64) (float64, bool) {
		_, perf, err := ev.EvalSpeculated(clampPoint(space, pt), spec)
		return perf, err == nil
	}
	res, _, err := runSimplex(space, ev, opts, "", func(s *simplex, iter int) bool {
		verts := s.verts
		// Reflect the worst vertex through the centroid of the others.
		centroid := s.centroid(len(verts) - 1)
		worst := verts[len(verts)-1]
		move := func(coef float64) []float64 { return moveFrom(centroid, worst.pt, coef) }

		// All candidate points one iteration can probe are known before any
		// measurement: the reflection, the expansion, and both contractions.
		// With a parallel budget the kernel measures them speculatively as
		// one concurrent round, then commits only the ones the sequential
		// logic below actually probes — in the sequential order — so the
		// committed trace is identical to the sequential kernel's while the
		// iteration's wall-clock shrinks to one measurement round.
		refl := move(opts.Reflection)
		var spec *Speculation
		if opts.Parallel > 1 {
			spec = ev.Speculate([][]float64{
				clampPoint(space, refl),
				clampPoint(space, move(opts.Reflection*opts.Expansion)),
				clampPoint(space, move(opts.Reflection*opts.Contraction)),
				clampPoint(space, move(-opts.Contraction)),
			}, opts.Parallel)
		}

		// Reflection.
		rPerf, ok := probe(spec, refl)
		if !ok {
			return false
		}
		switch {
		case s.better(rPerf, verts[0].perf):
			// Expansion.
			s.step(OpReflect, iter, rPerf, "improved best; trying expansion")
			exp := move(opts.Reflection * opts.Expansion)
			ePerf, ok := probe(spec, exp)
			if !ok {
				return false
			}
			if s.better(ePerf, rPerf) {
				s.step(OpExpand, iter, ePerf, "accepted")
				verts[len(verts)-1] = vertex{pt: clampPoint(space, exp), perf: ePerf}
			} else {
				s.step(OpExpand, iter, ePerf, "rejected; kept reflection")
				verts[len(verts)-1] = vertex{pt: clampPoint(space, refl), perf: rPerf}
			}
		case s.better(rPerf, verts[len(verts)-2].perf):
			// Better than the second-worst: accept the reflection.
			s.step(OpReflect, iter, rPerf, "accepted")
			verts[len(verts)-1] = vertex{pt: clampPoint(space, refl), perf: rPerf}
		default:
			// Contraction (outside if the reflection improved on the worst,
			// inside otherwise).
			s.step(OpReflect, iter, rPerf, "rejected; contracting")
			var contr []float64
			contrOp := OpContractIn
			if s.better(rPerf, worst.perf) {
				contr = move(opts.Reflection * opts.Contraction)
				contrOp = OpContractOut
			} else {
				contr = move(-opts.Contraction)
			}
			cPerf, ok := probe(spec, contr)
			if !ok {
				return false
			}
			if !s.better(cPerf, worst.perf) {
				s.step(contrOp, iter, cPerf, "rejected; shrinking")
				return s.shrink(iter)
			}
			s.step(contrOp, iter, cPerf, "accepted")
			verts[len(verts)-1] = vertex{pt: clampPoint(space, contr), perf: cPerf}
		}
		return true
	})
	return res, err
}

func clampPoint(space *Space, pt []float64) []float64 {
	out := make([]float64, len(pt))
	for i, p := range space.Params {
		v := pt[i]
		if v < float64(p.Min) {
			v = float64(p.Min)
		}
		if v > float64(p.Max) {
			v = float64(p.Max)
		}
		out[i] = v
	}
	return out
}
