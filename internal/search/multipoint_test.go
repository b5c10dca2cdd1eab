package search

import (
	"testing"
)

// wideSpace is an 8-parameter space with an interior optimum — wide enough
// that a parallel session takes the multi-point kernel (dim/2 = 4 > 1).
func wideSpace() (*Space, Objective) {
	params := make([]Param, 8)
	names := [...]string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := range params {
		params[i] = Param{Name: names[i], Min: 0, Max: 100, Step: 1, Default: 50}
	}
	s := MustSpace(params...)
	target := []float64{60, 30, 75, 20, 45, 80, 10, 55}
	obj := ObjectiveFunc(func(c Config) float64 {
		sum := 0.0
		for i, v := range c {
			d := float64(v) - target[i]
			sum += d * d
		}
		return 1000 - sum/10
	})
	return s, obj
}

func TestPBestWidth(t *testing.T) {
	cases := []struct {
		parallel, dim, want int
	}{
		{0, 10, 1},  // sequential
		{1, 10, 1},  // sequential
		{4, 10, 2},  // Parallel/2
		{8, 10, 4},  // Parallel/2
		{20, 10, 5}, // capped at dim/2
		{4, 3, 1},   // narrow space: dim/2 = 1
		{8, 2, 1},   // narrow space: dim/2 = 1
	}
	for _, c := range cases {
		o := NelderMeadOptions{Parallel: c.parallel}
		if got := o.pbest(c.dim); got != c.want {
			t.Errorf("pbest(Parallel=%d, dim=%d) = %d, want %d",
				c.parallel, c.dim, got, c.want)
		}
	}
}

func TestMultiPointDeterministic(t *testing.T) {
	s, obj := wideSpace()
	run := func() *Result {
		res, err := NelderMead(s, obj, NelderMeadOptions{
			Direction: Maximize, MaxEvals: 200, Init: DistributedInit{}, Parallel: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Evals != b.Evals || len(a.Trace) != len(b.Trace) {
		t.Fatalf("run-to-run evals differ: %d vs %d", a.Evals, b.Evals)
	}
	for i := range a.Trace {
		if !a.Trace[i].Config.Equal(b.Trace[i].Config) || a.Trace[i].Perf != b.Trace[i].Perf {
			t.Fatalf("trace diverges at %d: %v@%v vs %v@%v", i,
				a.Trace[i].Perf, a.Trace[i].Config, b.Trace[i].Perf, b.Trace[i].Config)
		}
	}
	if a.BestPerf != b.BestPerf || !a.BestConfig.Equal(b.BestConfig) {
		t.Errorf("best differs: %v@%v vs %v@%v", a.BestPerf, a.BestConfig, b.BestPerf, b.BestConfig)
	}
}

func TestMultiPointFindsInteriorOptimum(t *testing.T) {
	s, obj := wideSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 400, Init: DistributedInit{}, Parallel: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPerf < 950 {
		t.Errorf("BestPerf = %v at %v, want >= 950", res.BestPerf, res.BestConfig)
	}
	if res.Evals != len(res.Trace) {
		t.Errorf("Evals = %d, trace len = %d", res.Evals, len(res.Trace))
	}
}

// TestMultiPointNarrowSpaceMatchesSerial locks in the fallback: spaces of
// three or fewer parameters cap the multi-point width at 1, so a parallel
// session runs the trajectory-preserving speculative kernel and reproduces
// the sequential result exactly.
func TestMultiPointNarrowSpaceMatchesSerial(t *testing.T) {
	s, obj := quadSpace() // 3 parameters
	serial, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 150, Init: DistributedInit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 150, Init: DistributedInit{}, Parallel: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Evals != parallel.Evals || serial.BestPerf != parallel.BestPerf {
		t.Fatalf("narrow-space parallel diverged: evals %d vs %d, best %v vs %v",
			parallel.Evals, serial.Evals, parallel.BestPerf, serial.BestPerf)
	}
	for i := range serial.Trace {
		if !serial.Trace[i].Config.Equal(parallel.Trace[i].Config) {
			t.Fatalf("trace diverges at %d", i)
		}
	}
}

func TestMultiPointRespectsBudget(t *testing.T) {
	s, obj := wideSpace()
	for _, budget := range []int{5, 17, 40} {
		res, err := NelderMead(s, obj, NelderMeadOptions{
			Direction: Maximize, MaxEvals: budget, Init: DistributedInit{}, Parallel: 4,
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if res.Evals > budget {
			t.Errorf("budget %d: %d evals", budget, res.Evals)
		}
		if res.Evals != len(res.Trace) {
			t.Errorf("budget %d: Evals = %d, trace len = %d", budget, res.Evals, len(res.Trace))
		}
	}
}

// TestMultiPointPolishPhase verifies that leftover budget after the coarse
// walk converges funds a polish restart, announced by an EventPhase
// "polish" marker, and that the polish never worsens the best.
func TestMultiPointPolishPhase(t *testing.T) {
	s, obj := wideSpace()
	var events []Event
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 1000, Init: DistributedInit{}, Parallel: 8,
		Tracer: TracerFunc(func(e Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	polished := false
	for _, e := range events {
		if e.Type == EventPhase && e.Op == "polish" {
			polished = true
		}
	}
	if !polished {
		t.Fatalf("no polish phase in %d events despite %d leftover evals",
			len(events), 1000-res.Evals)
	}
	if !res.Converged {
		t.Error("polished run not marked converged")
	}
	// The polish restarts the speculative kernel around the incumbent
	// best, so the result can only hold or improve it.
	best := res.Trace.Best(Maximize)
	if res.BestPerf != best.Perf {
		t.Errorf("BestPerf %v != trace best %v", res.BestPerf, best.Perf)
	}
}
