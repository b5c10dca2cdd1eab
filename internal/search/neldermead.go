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
	// candidates are asked for at once and only the sequentially probed
	// ones are committed, so results — best configuration, trace, budget
	// accounting — are identical to the sequential kernel's for
	// deterministic objectives; only wall-clock changes. The objective must
	// be safe for concurrent use either way (see Synchronized).
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
	opts.fill(space.Dim())
	ev := NewEvaluator(space, obj)
	ev.MaxEvals = opts.MaxEvals
	ev.Tracer = opts.Tracer
	return NelderMeadWithEvaluator(space, ev, opts)
}

// NelderMeadWithEvaluator runs the search against a caller-managed
// evaluator, letting callers pre-seed historical measurements (§4.2) or
// share a budget across stages. It drives NewNelderMead with Drive.
func NelderMeadWithEvaluator(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	return Drive(NewNelderMead(space, ev, opts), ev, opts.Parallel)
}

// NewNelderMead returns the simplex search over ev as a Kernel. Its
// Parallel option sets how many configurations one step asks for at once.
func NewNelderMead(space *Space, ev *Evaluator, opts NelderMeadOptions) *Machine {
	m := &Machine{ev: ev}
	m.next = func() { m.NelderMead(space, opts, m.Finish) }
	return m
}

// NelderMead runs the simplex search on the machine and continues with its
// result. After the search converges it restarts from the best point found
// with progressively tighter fresh simplexes, sharing the evaluator
// (budget, cache and trace accumulate across restarts). The planned
// Restarts come first; after them ExtraRestart is polled, so a re-tune
// request arriving mid-run takes effect at the next natural stopping
// point. Budget exhaustion (or an empty trace) ends both kinds: restarting
// is futile then.
func (m *Machine) NelderMead(space *Space, opts NelderMeadOptions, then func(*Result, error)) {
	opts.fill(space.Dim())
	scale := 0.5
	r := 0
	var restart func(*Result, error)
	restart = func(res *Result, err error) {
		r++
		if err != nil || !res.Converged || len(res.BestConfig) == 0 {
			then(res, err)
			return
		}
		switch {
		case r <= opts.Restarts:
			Emit(opts.Tracer, Event{Type: EventPhase, Op: "restart", Iter: r, Perf: res.BestPerf})
		case opts.ExtraRestart != nil && opts.ExtraRestart():
			Emit(opts.Tracer, Event{Type: EventPhase, Op: "retune", Perf: res.BestPerf})
		default:
			then(res, nil)
			return
		}
		restartOpts := opts
		restartOpts.Init = scaledInit{
			center: space.Continuous(res.BestConfig),
			frac:   scale,
		}
		scale /= 2
		m.nelderMead(space, restartOpts, restart) // the shared trace spans all restarts
	}
	m.nelderMead(space, opts, restart)
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
func (m *Machine) nelderMead(space *Space, opts NelderMeadOptions, then func(*Result, error)) {
	if p := opts.pbest(space.Dim()); p > 1 {
		m.nelderMeadMultiPoint(space, opts, p, then)
		return
	}
	m.nelderMeadSingle(space, opts, func(res *Result, _ int, err error) { then(res, err) })
}

// simplex is the scaffold the single-vertex and multi-point kernels share:
// the vertex set (sorted best to worst between iterations) and the
// machine that measures it.
type simplex struct {
	space *Space
	m     *Machine
	opts  NelderMeadOptions
	verts []vertex

	// The iteration in flight, with its continuations bound once so an
	// iteration allocates only its points. The single-vertex kernel keeps
	// its candidates here too.
	iter     int
	next     func(bool)
	pf       *prefetch
	center   []float64 // the centroid the worst vertex moves through
	worst    vertex
	refl, pt []float64 // the reflection, and the point probed last
	rPerf    float64
	contrOp  string

	reflected, expanded, contracted func(Config, float64, error)
	shrunk                          func([]float64, error)
}

// runSimplex measures the initial simplex as one batch, then runs iterate
// once per iteration until the simplex converges — its relative spread
// falls below RelTol, or MaxStall iterations pass without improving the
// best vertex — or iterate continues with false (the budget is
// exhausted). It emits the termination decision (with note appended to
// the evals count) and continues with the result and the final iteration.
func (m *Machine) runSimplex(space *Space, opts NelderMeadOptions, note string,
	iterate func(s *simplex, iter int, next func(bool)), then func(*Result, int, error)) {
	dim := space.Dim()
	initPts := opts.Init.Initial(space)
	if len(initPts) != dim+1 {
		then(nil, 0, fmt.Errorf("search: init strategy %q produced %d vertices, want %d",
			opts.Init.Name(), len(initPts), dim+1))
		return
	}
	clamped := make([][]float64, len(initPts))
	for i, pt := range initPts {
		clamped[i] = clampPoint(space, pt)
	}
	m.batch(clamped, opts.Parallel, func(initPerfs []float64, err error) {
		budgetHit := err == ErrBudget
		if err != nil && !budgetHit {
			then(nil, 0, err)
			return
		}
		s := &simplex{space: space, m: m, opts: opts, verts: make([]vertex, 0, dim+1)}
		for i, perf := range initPerfs {
			s.verts = append(s.verts, vertex{pt: clamped[i], perf: perf})
		}

		// finish records the kernel's termination decision before continuing.
		finish := func(reason string, iter int, converged bool) {
			res := &Result{Trace: m.ev.Trace(), Converged: converged}
			if len(res.Trace) > 0 {
				best := res.Trace.Best(opts.Direction)
				res.BestConfig, res.BestPerf, res.Evals = best.Config.Clone(), best.Perf, m.ev.Count()
			}
			Emit(opts.Tracer, Event{
				Type: EventConverge, Op: reason, Iter: iter,
				Perf: res.BestPerf, Config: res.BestConfig,
				Note: fmt.Sprintf("evals=%d", res.Evals) + note,
			})
			then(res, iter, nil)
		}
		if budgetHit || len(s.verts) < dim+1 {
			finish("init_budget", 0, false)
			return
		}

		s.sort()
		stall, iter := 0, 0
		prevBest := s.verts[0].perf
		var loop func()
		after := func(ok bool) {
			if !ok {
				finish("budget", iter, false)
				return
			}
			s.sort()
			if s.better(s.verts[0].perf, prevBest) {
				prevBest = s.verts[0].perf
				stall = 0
			} else {
				stall++
			}
			iter++
			loop()
		}
		loop = func() {
			// Convergence: relative spread between best and worst vertex.
			bestV, worstV := s.verts[0].perf, s.verts[len(s.verts)-1].perf
			spread := abs(bestV - worstV)
			scale := abs(bestV) + abs(worstV)
			if scale > 0 && spread/scale < opts.RelTol {
				finish("reltol", iter, true)
				return
			}
			if stall >= opts.MaxStall {
				finish("stall", iter, true)
				return
			}
			iterate(s, iter, after)
		}
		loop()
	})
}

func (s *simplex) better(a, b float64) bool { return s.opts.Direction.Better(a, b) }

func (s *simplex) sort() { sortVertices(s.verts, s.better) }

// step records one simplex operation for the tracer.
func (s *simplex) step(op string, iter int, perf float64, note string) {
	Emit(s.opts.Tracer, Event{Type: EventSimplex, Op: op, Iter: iter, Perf: perf, Note: note})
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

// shrink moves every vertex but the best toward the best, re-measures
// them as one batch and continues with false when the budget ran out.
func (s *simplex) shrink(iter int, next func(bool)) {
	if s.shrunk == nil {
		s.shrunk = s.onShrunk
	}
	s.iter, s.next = iter, next
	verts := s.verts
	bestPt := verts[0].pt
	pts := make([][]float64, 0, len(verts)-1)
	for i := 1; i < len(verts); i++ {
		for j := range verts[i].pt {
			verts[i].pt[j] = bestPt[j] + s.opts.Shrink*(verts[i].pt[j]-bestPt[j])
		}
		pts = append(pts, verts[i].pt)
	}
	s.m.batch(pts, s.opts.Parallel, s.shrunk)
}

func (s *simplex) onShrunk(perfs []float64, err error) {
	verts := s.verts
	if err != nil || len(perfs) < len(verts)-1 {
		s.next(false)
		return
	}
	for i := 1; i < len(verts); i++ {
		verts[i].perf = perfs[i-1]
	}
	s.step(OpShrink, s.iter, verts[0].perf, fmt.Sprintf("re-measured %d vertices", len(verts)-1))
	s.next(true)
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
// simplex and shrink steps are measured as one batch and each iteration's
// candidates as one prefetch round.
func (m *Machine) nelderMeadSingle(space *Space, opts NelderMeadOptions, then func(*Result, int, error)) {
	m.runSimplex(space, opts, "", (*simplex).reflect, then)
}

// reflect runs one single-vertex iteration: it reflects the worst vertex
// through the centroid of the others. All candidate points one iteration
// can probe are known before any measurement: the reflection, the
// expansion, and both contractions. With a parallel budget the kernel
// measures them as one prefetch round, then commits only the ones the
// sequential logic actually probes — in the sequential order — so the
// committed trace is identical to the sequential kernel's while the
// iteration's wall-clock shrinks to one measurement round.
func (s *simplex) reflect(iter int, next func(bool)) {
	if s.reflected == nil {
		s.reflected, s.expanded, s.contracted = s.onReflect, s.onExpand, s.onContract
	}
	o := s.opts
	s.iter, s.next = iter, next
	s.center = s.centroid(len(s.verts) - 1)
	s.worst = s.verts[len(s.verts)-1]
	s.refl = s.move(o.Reflection)
	s.pf = nil
	if o.Parallel > 1 {
		s.pf = s.m.ev.prefetch([]Config{
			s.snap(s.refl),
			s.snap(s.move(o.Reflection * o.Expansion)),
			s.snap(s.move(o.Reflection * o.Contraction)),
			s.snap(s.move(-o.Contraction)),
		}, o.Parallel)
	}
	s.probe(s.refl, s.reflected)
}

func (s *simplex) move(coef float64) []float64 { return moveFrom(s.center, s.worst.pt, coef) }

func (s *simplex) snap(pt []float64) Config { return s.space.Snap(clampPoint(s.space, pt)) }

func (s *simplex) probe(pt []float64, then func(Config, float64, error)) {
	s.pt = pt
	s.m.probe(s.snap(pt), 0, s.pf, then)
}

// accept replaces the worst vertex and ends the iteration.
func (s *simplex) accept(pt []float64, perf float64) {
	s.verts[len(s.verts)-1] = vertex{pt: clampPoint(s.space, pt), perf: perf}
	s.next(true)
}

func (s *simplex) onReflect(_ Config, rPerf float64, err error) {
	if err != nil {
		s.next(false)
		return
	}
	o, verts := s.opts, s.verts
	s.rPerf = rPerf
	switch {
	case s.better(rPerf, verts[0].perf):
		s.step(OpReflect, s.iter, rPerf, "improved best; trying expansion")
		s.probe(s.move(o.Reflection*o.Expansion), s.expanded)
	case s.better(rPerf, verts[len(verts)-2].perf):
		// Better than the second-worst: accept the reflection.
		s.step(OpReflect, s.iter, rPerf, "accepted")
		s.accept(s.refl, rPerf)
	default:
		// Contraction: outside if the reflection improved on the worst,
		// inside otherwise.
		s.step(OpReflect, s.iter, rPerf, "rejected; contracting")
		coef := -o.Contraction
		s.contrOp = OpContractIn
		if s.better(rPerf, s.worst.perf) {
			s.contrOp, coef = OpContractOut, o.Reflection*o.Contraction
		}
		s.probe(s.move(coef), s.contracted)
	}
}

func (s *simplex) onExpand(_ Config, ePerf float64, err error) {
	switch {
	case err != nil:
		s.next(false)
	case s.better(ePerf, s.rPerf):
		s.step(OpExpand, s.iter, ePerf, "accepted")
		s.accept(s.pt, ePerf)
	default:
		s.step(OpExpand, s.iter, ePerf, "rejected; kept reflection")
		s.accept(s.refl, s.rPerf)
	}
}

func (s *simplex) onContract(_ Config, cPerf float64, err error) {
	switch {
	case err != nil:
		s.next(false)
	case !s.better(cPerf, s.worst.perf):
		s.step(s.contrOp, s.iter, cPerf, "rejected; shrinking")
		s.shrink(s.iter, s.next)
	default:
		s.step(s.contrOp, s.iter, cPerf, "accepted")
		s.accept(s.pt, cPerf)
	}
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
