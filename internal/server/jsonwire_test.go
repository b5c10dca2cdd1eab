package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/search"
)

// encodeLine renders m as one JSON wire line through jsonWire's write path.
func encodeLine(m message) ([]byte, error) {
	var buf bytes.Buffer
	err := newJSONWire(nil, bufio.NewWriter(&buf), nil, nil).send(m)
	return buf.Bytes(), err
}

// TestJSONWireLineIsMarshal pins the JSON line encoding: whatever the wire
// writes is exactly json.Marshal of the envelope plus '\n' — HTML escaping,
// invalid UTF-8 replacement and float formatting included — one message at
// a time and back to back on one wire. An unencodable message returns
// Marshal's error and writes nothing.
func TestJSONWireLineIsMarshal(t *testing.T) {
	zero, seven := 0, 7
	cases := []struct {
		name string
		m    message // as callers build it: id/hasID only
		want message // the envelope json.Marshal renders
	}{
		{"id 0", message{Op: "config", Values: []int{3, 4}, hasID: true},
			message{Op: "config", Values: []int{3, 4}, ID: &zero}},
		{"id and fidelity", message{Op: "config", Values: []int{-1, 60}, Fidelity: 0.25, id: 7, hasID: true},
			message{Op: "config", Values: []int{-1, 60}, Fidelity: 0.25, ID: &seven}},
		{"characteristics", message{Op: "report", Perf: 12.5, Characteristics: []float64{0.8, 0.2}},
			message{Op: "report", Perf: 12.5, Characteristics: []float64{0.8, 0.2}}},
		{"html and invalid utf-8", message{Op: "error", Msg: "a<b&c>d\xff\xfe"},
			message{Op: "error", Msg: "a<b&c>d\xff\xfe"}},
		{"perf 1e21", message{Op: "report", Perf: 1e21}, message{Op: "report", Perf: 1e21}},
		{"perf 1e-7", message{Op: "report", Perf: 1e-7}, message{Op: "report", Perf: 1e-7}},
		{"bare ok", message{Op: "ok"}, message{Op: "ok"}},
	}
	var all bytes.Buffer
	var stream bytes.Buffer
	shared := newJSONWire(nil, bufio.NewWriter(&stream), nil, nil)
	for _, tc := range cases {
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		all.Write(want)
		got, err := encodeLine(tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, want)
		}
		if err := shared.send(tc.m); err != nil {
			t.Fatalf("%s on the shared wire: %v", tc.name, err)
		}
	}
	if !bytes.Equal(stream.Bytes(), all.Bytes()) {
		t.Errorf("back-to-back lines differ from Marshal's:\n got %q\nwant %q", stream.Bytes(), all.Bytes())
	}

	nan := message{Op: "report", Perf: math.NaN()}
	_, wantErr := json.Marshal(nan)
	if wantErr == nil {
		t.Fatal("json.Marshal accepted a NaN perf")
	}
	w := bufio.NewWriter(io.Discard)
	jw := newJSONWire(nil, w, nil, nil)
	if err := jw.write(nan); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("NaN perf: err = %v, want %v", err, wantErr)
	}
	if w.Buffered() != 0 {
		t.Fatalf("NaN perf left %d bytes in the writer", w.Buffered())
	}
}

// countConn counts the Write calls made on a connection: each one is a
// socket write syscall on TCP.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// lockstepWrites runs one quadRSL lockstep session over loopback TCP with
// both ends wrapped in countConn, and returns the session's evaluations
// and the write calls each side made, the client's closing quit included.
func lockstepWrites(t *testing.T, proto int) (evals int, server, client int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	srv, cli := &countConn{Conn: accepted}, &countConn{Conn: dialed}
	s := NewServer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handle(srv)
	}()
	c := NewClientConn(cli)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true, Proto: proto}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server session did not end")
	}
	return best.Evals, srv.writes.Load(), cli.writes.Load()
}

// TestV1LockstepOneWritePerExchange: a JSON lockstep exchange costs each
// side one socket write per measurement, the same as binary v3. The client
// coalesces report+fetch; the server holds its ok while the fetch is
// already buffered and sends it with the config.
func TestV1LockstepOneWritePerExchange(t *testing.T) {
	evals, srvJSON, cliJSON := lockstepWrites(t, 2)
	evals3, srv3, cli3 := lockstepWrites(t, 3)
	if evals != evals3 {
		t.Fatalf("framings ran %d and %d evaluations", evals, evals3)
	}
	// Server: registered, one config per evaluation, best. Client:
	// register, the first fetch, one report+fetch per evaluation, quit.
	if want := int64(evals + 2); srvJSON != want || srv3 != want {
		t.Errorf("server writes: JSON %d, v3 %d, want %d each (%d evals)", srvJSON, srv3, want, evals)
	}
	if want := int64(evals + 3); cliJSON != want || cli3 != want {
		t.Errorf("client writes: JSON %d, v3 %d, want %d each (%d evals)", cliJSON, cli3, want, evals)
	}
}

// TestV1LockstepHeldAckFlushedBeforeBlocking: the server may hold a report
// ack only while the client's next line is buffered, and never blocks with
// it held. Here that next line is garbage, which earns no reply: the ok
// must still arrive — the server flushes it before it waits for more
// input — and the garbage costs one fault.
func TestV1LockstepHeldAckFlushedBeforeBlocking(t *testing.T) {
	ends := make(chan SessionEnd, 1)
	_, addr := startServerWith(t, func(s *Server) { s.OnSessionEnd = func(e SessionEnd) { ends <- e } })
	rs := rawDial(t, addr)
	rs.write(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }\n{ harmonyBundle y { int {0 60 1} } }","max_evals":60,"improved":true}`)
	if line, m := rs.read(); m.Op != "registered" {
		t.Fatalf("register reply = %q", line)
	}
	rs.write(`{"op":"fetch"}`)
	line, m := rs.read()
	if m.Op != "config" {
		t.Fatalf("fetch reply = %q", line)
	}
	// The report and the garbage leave in one write, so the garbage is
	// buffered when the server reads the report.
	chunk := fmt.Sprintf("{\"op\":\"report\",\"perf\":%v}\nnot json\n", quadPeak(search.Config(m.Values)))
	if _, err := rs.conn.Write([]byte(chunk)); err != nil {
		t.Fatal(err)
	}
	rs.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	ack, err := rs.r.ReadString('\n')
	if err != nil {
		t.Fatalf("no ack within 2 s (held?): %v", err)
	}
	if ack != "{\"op\":\"ok\"}\n" {
		t.Fatalf("report ack = %q", ack)
	}
	rs.conn.Close()
	if e := waitEnd(t, ends); e.Faults != 1 {
		t.Fatalf("session charged %d faults, want 1 for the garbage line", e.Faults)
	}
}

// strictV1Server is a scripted v1 server that reads one line and answers
// it before it reads the next: it never sees two lines at once, so it can
// never coalesce. It serves configs (i, i) for i = 1..evals, then the
// best, and records every byte the client sends.
func strictV1Server(t *testing.T, conn net.Conn, evals int, got chan<- []byte) {
	defer conn.Close()
	var rec bytes.Buffer
	defer func() { got <- rec.Bytes() }()
	r := bufio.NewReader(conn)
	reply := func(line string) bool {
		_, err := conn.Write([]byte(line + "\n"))
		return err == nil
	}
	served := 0
	for {
		line, err := r.ReadString('\n')
		rec.WriteString(line)
		if err != nil {
			return
		}
		m, err := decode([]byte(line))
		if err != nil {
			t.Errorf("strict server: %v", err)
			return
		}
		var ok bool
		switch m.Op {
		case "register":
			ok = reply(`{"op":"registered","names":["x","y"]}`)
		case "fetch":
			if served == evals {
				ok = reply(`{"op":"best","values":[1,1],"perf":1,"evals":3}`)
				break
			}
			served++
			ok = reply(fmt.Sprintf(`{"op":"config","values":[%d,%d]}`, served, served))
		case "report", "quit":
			ok = reply(`{"op":"ok"}`)
		default:
			t.Errorf("strict server: unexpected op %q", m.Op)
			return
		}
		if !ok {
			return
		}
	}
}

// TestV1LockstepCoalescedClientAgainstStrictServer: the coalescing client
// still completes against a server that answers one line at a time, and
// its byte stream equals the v1 transcript — the one a client calling
// Fetch and Report separately sends.
func TestV1LockstepCoalescedClientAgainstStrictServer(t *testing.T) {
	const evals = 3
	run := func(drive func(c *Client) (*Best, error)) []byte {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		got := make(chan []byte, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				got <- nil
				return
			}
			strictV1Server(t, conn, evals, got)
		}()
		c, err := Dial(ln.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.OpTimeout = 5 * time.Second
		if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60}); err != nil {
			t.Fatal(err)
		}
		best, err := drive(c)
		if err != nil {
			t.Fatal(err)
		}
		if best.Evals != 3 || best.Perf != 1 {
			t.Fatalf("best = %+v", best)
		}
		c.Close()
		select {
		case b := <-got:
			return b
		case <-time.After(5 * time.Second):
			t.Fatal("strict server never saw the connection close")
			return nil
		}
	}
	measure := func(cfg search.Config) float64 { return float64(10 * cfg[0]) }
	coalesced := run(func(c *Client) (*Best, error) { return c.Tune(measure) })
	classic := run(func(c *Client) (*Best, error) {
		for {
			cfg, done, err := c.Fetch()
			if err != nil || done {
				best, _ := c.BestResult()
				return best, err
			}
			if err := c.Report(measure(cfg)); err != nil {
				return nil, err
			}
		}
	})
	if !bytes.Equal(coalesced, classic) {
		t.Fatalf("coalesced client stream differs from the v1 transcript:\n got %q\nwant %q", coalesced, classic)
	}
	if n := strings.Count(string(classic), `"op":"report"`); n != evals {
		t.Fatalf("transcript carries %d reports, want %d:\n%s", n, evals, classic)
	}
}

// exchangeAllocs runs a lockstep session over loopback TCP with the server
// in process and returns the heap allocations per ReportAndFetch exchange,
// both ends counted, over n exchanges after a warm-up. The session must
// not converge meanwhile: with this objective it lasts about 30 exchanges.
func exchangeAllocs(t *testing.T, proto, n int) float64 {
	t.Helper()
	_, addr := startServerWith(t, func(s *Server) { s.MaxEvalsCap = 1 << 30 })
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 1 << 30, Improved: true, Proto: proto}); err != nil {
		t.Fatal(err)
	}
	cfg, done, err := c.Fetch()
	if err != nil || done {
		t.Fatalf("first fetch: done=%v err=%v", done, err)
	}
	i := 0
	exchange := func() {
		// The exchange benchmarks' objective: noise keeps the simplex from
		// converging for a while.
		perf := quadPeak(cfg) + 200*math.Sin(float64(i))
		i++
		if cfg, done, err = c.ReportAndFetch(perf); err != nil || done {
			t.Fatalf("exchange %d: done=%v err=%v", i, done, err)
		}
	}
	for range 5 {
		exchange()
	}
	return testing.AllocsPerRun(n, exchange)
}

// TestLockstepExchangeAllocs pins the heap cost of one lockstep exchange,
// client and server together, on the JSON and the binary framing. The
// ceilings sit a few allocations above the measured 32 (JSON; 45 when each
// line went through json.Marshal and an append) and 9 (v3). The exchange
// benchmarks report more per op because they amortize reconnects too.
func TestLockstepExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		proto   int
		ceiling float64
	}{{2, 35}, {3, 11}} {
		if got := exchangeAllocs(t, tc.proto, 20); got > tc.ceiling {
			t.Errorf("proto %d: %.1f allocs per exchange, ceiling %.0f", tc.proto, got, tc.ceiling)
		} else {
			t.Logf("proto %d: %.1f allocs per exchange (ceiling %.0f)", tc.proto, got, tc.ceiling)
		}
	}
}
