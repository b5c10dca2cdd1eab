package search

import (
	"fmt"
)

// polishFrac is the simplex scale (fraction of each parameter's range) of
// the polish phase the multi-point kernel runs with leftover budget after
// its coarse walk converges.
const polishFrac = 0.25

// pbest resolves the effective multi-point width for one simplex iteration:
// how many of the worst vertices are updated concurrently. Each vertex
// consumes two concurrent measurement slots per round (its reflection and
// its inside contraction travel together), so Parallel/2 vertices fill the
// window exactly; the width is capped at dim/2 so the reflection centroid
// stays informative. Sequential sessions always get 1.
func (o NelderMeadOptions) pbest(dim int) int {
	return max(min(o.Parallel/2, dim/2), 1)
}

// nelderMeadMultiPoint is the multi-point parallel simplex (after Lee &
// Wiswall's p-best scheme): each iteration updates the p worst vertices
// concurrently, and — unlike the textbook two-round formulation — measures
// each vertex's reflection AND its inside contraction together in a single
// batch round. Both candidates are computable from the committed
// simplex before any measurement starts (the contraction does not depend
// on the reflection's outcome, only the choice between them does), so one
// round of 2p concurrent measurements replaces the reflect-then-
// maybe-contract sequence that would otherwise serialize two measurement
// latencies per iteration. Each vertex then takes its reflection when that
// beats the vertex, else its contraction when that does, else keeps its
// place; if no vertex improved the whole simplex shrinks toward the best
// point (one more concurrent batch), mirroring the sequential kernel's
// shrink rule. The simplex re-sorts after every round, so each round's
// centroid reflects all previously committed progress.
//
// The coarse parallel walk trades the sequential kernel's expansion trial
// for round economy, so it converges in fewer, wider steps; whatever
// evaluation budget is left at convergence funds a polish phase — a
// reduced-scale restart on the trajectory-preserving speculative kernel,
// centred on the incumbent best — which recovers the fine local refinement
// the wide walk skips.
//
// Wall-clock per unit of simplex progress drops by roughly p for
// measurement-bound objectives — a round costs one measurement latency and
// commits up to p vertex updates — which is what a pipelined session with a
// wide window buys. The trajectory differs from the sequential kernel's (a
// different — more parallel — walk over the same surface) but is fully
// deterministic for a given width: a batch commits and traces in input
// order, every decision derives from committed values, and the candidate
// order within a round is fixed (worst vertex first, reflection before
// contraction). Narrow spaces never take this path — pbest caps the width
// at dim/2, so 2- and 3-dimensional sessions fall back to the speculative
// kernel whose results are identical to sequential.
func (m *Machine) nelderMeadMultiPoint(space *Space, opts NelderMeadOptions, p int, then func(*Result, error)) {
	m.runSimplex(space, opts, fmt.Sprintf(" pbest=%d", p), func(s *simplex, iter int, next func(bool)) {
		verts := s.verts
		// Centroid of everything except the p vertices being updated.
		centroid := s.centroid(len(verts) - p)

		// One concurrent round measures every candidate the iteration can
		// commit: the reflection and the inside contraction of each of the
		// p worst vertices, in a fixed order (worst first, reflection
		// before contraction) so the committed trace is deterministic.
		reflPts := make([][]float64, p)
		contrPts := make([][]float64, p)
		batch := make([][]float64, 0, 2*p)
		for j := 0; j < p; j++ {
			w := verts[len(verts)-1-j]
			reflPts[j] = clampPoint(space, moveFrom(centroid, w.pt, opts.Reflection))
			contrPts[j] = clampPoint(space, moveFrom(centroid, w.pt, -opts.Contraction))
			batch = append(batch, reflPts[j], contrPts[j])
		}
		m.batch(batch, opts.Parallel, func(perfs []float64, err error) {
			if err != nil || len(perfs) < len(batch) {
				next(false)
				return
			}

			// Commit the p updates: reflection if it beats the vertex, else
			// contraction if that does, else the vertex stays.
			improved := false
			for j := 0; j < p; j++ {
				idx := len(verts) - 1 - j
				w := verts[idx]
				rPerf, cPerf := perfs[2*j], perfs[2*j+1]
				switch {
				case s.better(rPerf, w.perf):
					s.step(OpReflect, iter, rPerf, fmt.Sprintf("vertex %d accepted", idx))
					verts[idx] = vertex{pt: reflPts[j], perf: rPerf}
					improved = true
				case s.better(cPerf, w.perf):
					s.step(OpContractIn, iter, cPerf, fmt.Sprintf("vertex %d accepted", idx))
					verts[idx] = vertex{pt: contrPts[j], perf: cPerf}
					improved = true
				default:
					s.step(OpContractIn, iter, cPerf, fmt.Sprintf("vertex %d rejected", idx))
				}
			}
			if improved {
				next(true)
				return
			}
			// Every update failed: shrink the whole simplex toward the best
			// vertex — one more concurrent batch.
			s.shrink(iter, next)
		})
	}, func(res *Result, iter int, err error) {
		if err != nil || !res.Converged || m.ev.MaxEvals <= 0 || len(res.BestConfig) == 0 {
			then(res, err)
			return
		}
		// The coarse walk converged. Leftover budget — the wide walk
		// typically converges in fewer evaluations than the sequential
		// kernel spends — funds a polish restart on the speculative kernel
		// at reduced scale around the incumbent best.
		remaining := m.ev.MaxEvals - m.ev.Count()
		if remaining < space.Dim()+1 {
			then(res, nil)
			return
		}
		Emit(opts.Tracer, Event{
			Type: EventPhase, Op: "polish", Iter: iter, Perf: res.BestPerf,
			Note: fmt.Sprintf("remaining=%d frac=%v", remaining, polishFrac),
		})
		polishOpts := opts
		polishOpts.Init = scaledInit{center: space.Continuous(res.BestConfig), frac: polishFrac}
		m.nelderMeadSingle(space, polishOpts, func(pres *Result, _ int, err error) {
			if err != nil {
				then(nil, err)
				return
			}
			// The polish merely spends what was left, so running out of
			// budget mid-polish is still convergence.
			pres.Converged = true
			then(pres, nil)
		})
	})
}
