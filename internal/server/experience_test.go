package server

import (
	"sync"
	"testing"
	"time"

	"harmony/internal/search"
)

// quadMeasure builds a measure function peaking at the given point with
// run counting.
func quadMeasure(px, py int, count *int) func(search.Config) float64 {
	return func(cfg search.Config) float64 {
		*count++
		dx, dy := float64(cfg[0]-px), float64(cfg[1]-py)
		return 1000 - dx*dx - dy*dy
	}
}

func TestCrossSessionWarmStart(t *testing.T) {
	_, addr := startServer(t)
	chars := []float64{0.8, 0.2}

	// Session 1: cold. Deposits its experience.
	c1 := dial(t, addr)
	if _, err := c1.Register(quadRSL, RegisterOptions{
		MaxEvals: 150, Improved: true, App: "shop", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if c1.WarmStarted() {
		t.Error("first session reported warm start")
	}
	cold := 0
	bestCold, err := c1.Tune(quadMeasure(20, 45, &cold))
	if err != nil {
		t.Fatal(err)
	}

	// Session 2: same app, same spec, similar characteristics → warm.
	c2 := dial(t, addr)
	if _, err := c2.Register(quadRSL, RegisterOptions{
		MaxEvals: 150, Improved: true, App: "shop",
		Characteristics: []float64{0.78, 0.22},
	}); err != nil {
		t.Fatal(err)
	}
	if !c2.WarmStarted() {
		t.Fatal("second session not warm-started")
	}
	warm := 0
	bestWarm, err := c2.Tune(quadMeasure(20, 45, &warm))
	if err != nil {
		t.Fatal(err)
	}

	if warm >= cold {
		t.Errorf("warm session used %d measurements, cold used %d", warm, cold)
	}
	if bestWarm.Perf < bestCold.Perf-20 {
		t.Errorf("warm best %v much worse than cold best %v", bestWarm.Perf, bestCold.Perf)
	}
}

func TestNoCharacteristicsNoExperience(t *testing.T) {
	_, addr := startServer(t)
	run := func() bool {
		c := dial(t, addr)
		if _, err := c.Register(quadRSL, RegisterOptions{
			MaxEvals: 60, Improved: true, App: "anon",
		}); err != nil {
			t.Fatal(err)
		}
		n := 0
		if _, err := c.Tune(quadMeasure(10, 10, &n)); err != nil {
			t.Fatal(err)
		}
		return c.WarmStarted()
	}
	if run() {
		t.Error("characteristic-free session warm-started")
	}
	if run() {
		t.Error("second characteristic-free session warm-started")
	}
}

func TestDifferentSpecDoesNotShareExperience(t *testing.T) {
	_, addr := startServer(t)
	chars := []float64{1, 0}

	c1 := dial(t, addr)
	if _, err := c1.Register(quadRSL, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "app", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := c1.Tune(quadMeasure(5, 5, &n)); err != nil {
		t.Fatal(err)
	}

	// Same app, different spec: the stored simplex would be meaningless.
	other := `
{ harmonyBundle a { int {0 30 1} } }
{ harmonyBundle b { int {0 30 1} } }
`
	c2 := dial(t, addr)
	if _, err := c2.Register(other, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "app", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if c2.WarmStarted() {
		t.Error("session with a different spec warm-started from foreign experience")
	}
}

func TestRestrictedSpecExperienceRoundTrip(t *testing.T) {
	// Experience for restricted specs lives in adapter coordinates; a
	// second session must warm-start without ever proposing an infeasible
	// configuration.
	_, addr := startServer(t)
	restricted := `
{ harmonyBundle B { int {1 8 1} } }
{ harmonyBundle C { int {1 9-$B 1} } }
`
	chars := []float64{0.5, 0.5}
	measure := func(cfg search.Config) float64 {
		if cfg[0]+cfg[1] > 9 {
			t.Fatalf("infeasible configuration proposed: %v", cfg)
		}
		db, dc := float64(cfg[0]-4), float64(cfg[1]-5)
		return 100 - db*db - dc*dc
	}

	c1 := dial(t, addr)
	if _, err := c1.Register(restricted, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "matrix", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Tune(measure); err != nil {
		t.Fatal(err)
	}

	c2 := dial(t, addr)
	if _, err := c2.Register(restricted, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "matrix", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if !c2.WarmStarted() {
		t.Fatal("restricted second session not warm-started")
	}
	best, err := c2.Tune(measure)
	if err != nil {
		t.Fatal(err)
	}
	if best.Values[0]+best.Values[1] > 9 {
		t.Errorf("warm-started best infeasible: %v", best.Values)
	}
	if best.Perf < 95 {
		t.Errorf("warm-started best = %+v", best)
	}
}

func TestConcurrentExperienceAccess(t *testing.T) {
	// Hammer the store from parallel sessions; run under -race.
	_, addr := startServer(t)
	done := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			if _, err := c.Register(quadRSL, RegisterOptions{
				MaxEvals: 60, Improved: true, App: "racer",
				Characteristics: []float64{float64(i % 2), 1},
			}); err != nil {
				done <- err
				return
			}
			n := 0
			_, err = c.Tune(quadMeasure(10+i, 20, &n))
			done <- err
		}(i)
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestWarmStartAfterCompactionSeedsDistinctVertices: compaction merges
// same-class experiences, so the matched record set repeats configurations
// (every session re-measures the shared best). The warm start must still
// seed dim+1 distinct vertices, or the simplex starts degenerate. The
// compaction threshold reaching the default store is part of the setup.
func TestWarmStartAfterCompactionSeedsDistinctVertices(t *testing.T) {
	var mu sync.Mutex
	evals := map[string][]search.Config{}
	ends := make(chan SessionEnd, 3)
	s, addr := startServerWith(t, func(s *Server) {
		s.ExperienceCompactAbove = 1
		s.OnSessionEnd = func(e SessionEnd) { ends <- e }
		s.Tracer = search.TracerFunc(func(e search.Event) {
			if e.Type == search.EventEval {
				mu.Lock()
				evals[e.Session] = append(evals[e.Session], e.Config)
				mu.Unlock()
			}
		})
	})
	chars := []float64{0.8, 0.2}
	for i := 0; i < 3; i++ {
		c := dial(t, addr)
		if _, err := c.Register(quadRSL, RegisterOptions{
			MaxEvals: 150, Improved: true, App: "shop", Characteristics: chars,
		}); err != nil {
			t.Fatal(err)
		}
		if warm := c.WarmStarted(); warm != (i > 0) {
			t.Fatalf("session %d warm = %v", i, warm)
		}
		n := 0
		if _, err := c.Tune(quadMeasure(20, 45, &n)); err != nil {
			t.Fatal(err)
		}
		end := waitEnd(t, ends)
		if i < 2 {
			continue
		}
		mu.Lock()
		initial := evals[end.ID]
		mu.Unlock()
		if len(initial) < 3 {
			t.Fatalf("session traced %d evaluations", len(initial))
		}
		initial = initial[:3]
		for a := range initial {
			for b := a + 1; b < len(initial); b++ {
				if initial[a].Equal(initial[b]) {
					t.Fatalf("initial simplex %v repeats a vertex", initial)
				}
			}
		}
	}
	// The three same-class deposits compacted into one experience.
	if ns := s.ExperienceStore().Namespaces(); len(ns) != 1 || ns[0].Experiences != 1 {
		t.Fatalf("namespaces = %+v, want one compacted experience", ns)
	}
}
