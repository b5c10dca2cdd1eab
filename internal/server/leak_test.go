package server

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/obs"
)

// TestNoGoroutineLeak runs every framing — v1 JSON lockstep, v2 JSON
// pipelined, v3 at window 1 and 4, and one v4-mux connection carrying a
// lockstep and a pipelined session — plus a mid-session disconnect on each
// loop shape and a mux credit-stall eviction, then shuts the server down.
// Every goroutine the server (and the clients) started must be gone: the
// count returns to its pre-listen baseline.
func TestNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewServer()
	s.Metrics = NewMetrics(obs.NewRegistry())
	// A shared eval cache is what lets the eviction scenario stall one
	// session's loop on a peer's in-flight measurement.
	s.EvalCache = CacheShared
	a, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := a.String()

	tune := func(proto, window int) {
		t.Helper()
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true, App: "leak", Proto: proto, Window: window}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.TuneParallel(quadPeak, window); err != nil {
			t.Fatalf("proto %d window %d: %v", proto, window, err)
		}
	}
	tune(2, 0) // v1 JSON lockstep (no window declared)
	tune(2, 4) // v2 JSON pipelined
	tune(3, 0) // v3 lockstep
	tune(3, 4) // v3 pipelined

	// One mux connection, a lockstep and a pipelined session side by side.
	mx, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, window := range []int{0, 4} {
		c := mx.Session()
		if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true, App: "mux", Window: window}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client, window int) {
			defer wg.Done()
			defer c.Close()
			if _, err := c.TuneParallel(quadPeak, window); err != nil {
				t.Errorf("mux window %d: %v", window, err)
			}
		}(c, window)
	}
	wg.Wait()
	mx.Close()

	// Mid-session disconnects: a lockstep session between fetch and report,
	// and a pipelined session with configurations in flight (its reader
	// goroutine blocked on the socket).
	for _, window := range []int{0, 4} {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, App: "vanish", Proto: 3, Window: window}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Fetch(); err != nil {
			t.Fatal(err)
		}
		if window > 1 {
			if err := c.FetchAsync(); err != nil {
				t.Fatal(err)
			}
		}
		c.conn.Close() // no quit: the transport just dies
	}

	// Credit-stall eviction. Two lockstep sessions of one fresh namespace
	// (no app) on a raw mux connection fetch the same first configuration:
	// token 1 measures it, token 2's kernel waits on that in-flight
	// measurement, so token 2's loop stops draining its inbox and a burst of
	// fetches overruns it.
	rv := rawDialV3(t, addr)
	rv.registerMux()
	regBody, err := json.Marshal(message{Op: "register", RSL: quadRSL, MaxEvals: 60, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	rv.writeMuxFrame(opRegister, 2, regBody)
	if tok, m := rv.readMuxFrame(); tok != 2 || m.Op != "registered" {
		t.Fatalf("register token 2 = token %d %+v", tok, m)
	}
	rv.writeMuxFrame(opFetch, muxToken1, nil)
	if tok, m := rv.readMuxFrame(); tok != muxToken1 || m.Op != "config" {
		t.Fatalf("token 1 fetch = token %d %+v", tok, m)
	}
	// A window-1 inbox holds 2×1+4 frames; four more overrun it.
	for i := 0; i < 2*1+4+4; i++ {
		rv.writeMuxFrame(opFetch, 2, nil)
	}
	for {
		tok, m := rv.readMuxFrame()
		if tok == 2 && m.Op == "error" && strings.HasPrefix(m.Msg, muxEvictedPrefix) {
			break
		}
	}
	if v := s.Metrics.MuxEvictions.Value(); v != 1 {
		t.Fatalf("MuxEvictions = %d, want 1", v)
	}
	rv.conn.Close() // token 1 vanishes mid-measurement

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if v := s.Metrics.SessionsActive.Value(); v != 0 {
		t.Errorf("sessions active after shutdown = %v, want 0", v)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
