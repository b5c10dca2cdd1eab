package main

import (
	"fmt"
	"math"
	"strings"

	"harmony/internal/search"
	"harmony/internal/sensitivity"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

// Everything in this file is derived from the run's --seed before timing
// starts. The server only ever sees what these functions generate.

// rslFor renders a static search space as the RSL text a client registers.
func rslFor(space *search.Space) string {
	var b strings.Builder
	for _, p := range space.Params {
		fmt.Fprintf(&b, "{ harmonyBundle %s { int {%d %d %d} } }\n", p.Name, p.Min, p.Max, p.Step)
	}
	return b.String()
}

// bowl is the closed-form objective of the serial and fleet workloads: a
// separable rational bowl over the web-cluster space that peaks near 100
// (read as WIPS, the unit the web workloads report) at a per-session
// optimum. It allocates nothing and never sleeps, so those workloads
// measure the protocol and server stack, not an application.
type bowl struct {
	lo, span, opt, w []float64
	best             float64 // the closed-form optimum over the grid
}

func newBowl(space *search.Space, seed uint64) *bowl {
	rng := stats.NewRNG(seed)
	n := space.Dim()
	b := &bowl{lo: make([]float64, n), span: make([]float64, n), opt: make([]float64, n), w: make([]float64, n)}
	grid := make(search.Config, n)
	for i, p := range space.Params {
		b.lo[i] = float64(p.Min)
		b.span[i] = float64(p.Max - p.Min)
		b.opt[i] = rng.Uniform(0.1, 0.9)
		b.w[i] = rng.Uniform(1, 4)
		// The bowl is separable and convex in each coordinate, so the
		// grid optimum takes the grid value nearest the continuous one in
		// every dimension.
		k := math.Round(b.opt[i] * b.span[i] / float64(p.Step))
		v := p.Min + int(k)*p.Step
		for v > p.Max {
			v -= p.Step
		}
		grid[i] = v
	}
	b.best = b.measure(grid)
	return b
}

func (b *bowl) measure(cfg search.Config) float64 {
	s := 0.0
	for i, v := range cfg {
		d := (float64(v)-b.lo[i])/b.span[i] - b.opt[i]
		s += b.w[i] * d * d
	}
	return 100 / (1 + s)
}

// The web workloads' simulated cluster. A
// measurement simulates simSeconds of the cluster, which is also what it
// is priced at in meas_s_*.
const (
	simSeconds = 30.0
	simWarmup  = 8.0
	// refSamples is how many seeded random configurations set a mix's
	// reference WIPS: the tuner never influences its own yardstick.
	refSamples = 48
	// charSample is the request-sample size behind each session's
	// workload characteristics.
	charSample = 400
)

func newCluster(seed uint64) *webservice.Cluster {
	return webservice.NewCluster(webservice.Options{Duration: simSeconds, Warmup: simWarmup, Seed: seed})
}

// appSeed fixes the simulated cluster the web workloads tune: the
// application is the same in every run, and --seed draws the schedule of
// production runs it serves.
const appSeed = 20040601

// mixPool is the web workloads' population of TPC-W mixes: the three
// standard mixes plus three fixed blends of two of them.
func mixPool() []tpcw.Mix {
	return []tpcw.Mix{
		tpcw.Browsing, tpcw.Shopping, tpcw.Ordering,
		tpcw.Browsing.Interpolate(tpcw.Shopping, 0.5),
		tpcw.Shopping.Interpolate(tpcw.Ordering, 0.5),
		tpcw.Browsing.Interpolate(tpcw.Ordering, 0.3),
	}
}

// randomConfig draws a uniform grid point of the space.
func randomConfig(space *search.Space, rng *stats.RNG) search.Config {
	cfg := make(search.Config, space.Dim())
	for i, p := range space.Params {
		cfg[i] = p.Min + p.Step*rng.Intn(p.NumValues())
	}
	return cfg
}

// reference is the best of refSamples seeded random measurements: the
// per-mix yardstick meas_s_to_98 and bad_iters are judged against.
func reference(space *search.Space, measure func(search.Config) float64, seed uint64) float64 {
	rng := stats.NewRNG(seed)
	best := math.Inf(-1)
	for i := 0; i < refSamples; i++ {
		if v := measure(randomConfig(space, rng)); v > best {
			best = v
		}
	}
	return best
}

// characteristics samples a request stream from the mix and returns its
// interaction frequencies, as a client would observe them.
func characteristics(mix tpcw.Mix, seed uint64) []float64 {
	return tpcw.Characteristics(tpcw.GenerateStream(mix, charSample, 1.0, stats.NewRNG(seed)))
}

// topSubspace ranks the web cluster's parameters by sensitivity under the
// shopping mix and returns the subspace of the n most sensitive, the other
// parameters held at their defaults (the paper's Fig. 9 practice).
func topSubspace(cluster *webservice.Cluster, n int) (*search.Space, func(search.Config) search.Config, error) {
	full := webservice.Space()
	rep, err := sensitivity.Analyze(full, cluster.ObjectiveStable(tpcw.Shopping), sensitivity.Options{Repeats: 1})
	if err != nil {
		return nil, nil, err
	}
	return full.Subspace(rep.TopN(n), full.DefaultConfig())
}
