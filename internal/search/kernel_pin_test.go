package search

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// bumpyObjective is a deterministic non-separable surface over dim
// parameters: a rotated quadratic bowl with a cosine ripple, so the simplex
// kernels reflect, expand, contract and shrink on it.
func bumpyObjective(dim int) (*Space, Objective) {
	params := make([]Param, dim)
	for i := range params {
		params[i] = Param{Name: string(rune('a' + i)), Min: 0, Max: 100, Step: 1, Default: 50}
	}
	s := MustSpace(params...)
	obj := ObjectiveFunc(func(c Config) float64 {
		sum := 0.0
		for i, v := range c {
			d := float64(v) - float64(20+(37*i)%60)
			next := float64(c[(i+1)%len(c)]) - float64(20+(37*(i+1))%60)
			sum += d*d + 0.5*d*next + 300*math.Cos(float64(v)/3)
		}
		return 2000 - sum/10
	})
	return s, obj
}

// traceDigest hashes a kernel's full event stream (emission times
// excluded) so any change to the walk — an eval, a simplex operation, a
// convergence note or a phase marker — changes the digest.
func traceDigest(t *testing.T, events []Event) string {
	t.Helper()
	h := sha256.New()
	for _, e := range events {
		e.Time = time.Time{}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelTracesPinned pins the exact walks of the sequential,
// speculative and multi-point (with polish) simplex kernels. The digests
// were recorded from the kernels before their shared scaffold was factored
// out; a refactor that moves any committed evaluation or event fails here.
func TestKernelTracesPinned(t *testing.T) {
	cases := []struct {
		name     string
		dim      int
		opts     NelderMeadOptions
		extra    int // ExtraRestart grants
		wantOps  []string
		wantHash string
	}{
		{
			name:     "sequential",
			dim:      3,
			opts:     NelderMeadOptions{MaxEvals: 150, Parallel: 1, Restarts: 1},
			extra:    1,
			wantOps:  []string{OpReflect, OpExpand, OpShrink, "restart", "retune"},
			wantHash: "4c5c0b2f92da4dff043786424aeb1bcce5f8bcf089dab786bd08cc867e662035",
		},
		{
			name:     "speculative",
			dim:      3,
			opts:     NelderMeadOptions{MaxEvals: 120, Parallel: 2},
			wantOps:  []string{OpReflect, OpExpand, OpShrink},
			wantHash: "8b688e31b6e71a2b62ec93074215eda680116f975f482e30ed42906711bf31a1",
		},
		{
			name:     "multipoint",
			dim:      8,
			opts:     NelderMeadOptions{MaxEvals: 400, Parallel: 4},
			wantOps:  []string{OpReflect, OpContractIn, OpShrink, "polish"},
			wantHash: "dd9a3e301e0450b87d16b9f7c718ba6bc5c397b2b065f329a608d36364ad13b2",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, obj := bumpyObjective(c.dim)
			var tr CollectTracer
			opts := c.opts
			opts.Direction = Maximize
			opts.Init = DistributedInit{}
			opts.Tracer = &tr
			grants := c.extra
			opts.ExtraRestart = func() bool {
				grants--
				return grants >= 0
			}
			if _, err := NelderMead(s, obj, opts); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range tr.Events {
				seen[e.Op] = true
			}
			for _, op := range c.wantOps {
				if !seen[op] {
					t.Errorf("walk never reached %q; the case no longer covers it", op)
				}
			}
			if got := traceDigest(t, tr.Events); got != c.wantHash {
				t.Errorf("event stream digest = %s, want %s (%d events)", got, c.wantHash, len(tr.Events))
			}
		})
	}
}
