package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/search"
)

// pipeSession serves one in-process connection on s and returns the client
// end plus a channel that closes when the server's handler has returned.
// The test goroutine drives the client end itself, so no client goroutine
// exists.
func pipeSession(s *Server) (net.Conn, <-chan struct{}) {
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handle(srv)
	}()
	return cli, done
}

// goroutinesSettleAt polls until the process runs want goroutines (a
// goroutine that is exiting may take a moment to go) and returns the last
// count seen.
func goroutinesSettleAt(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n != want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// steadyGoroutines returns the goroutine count once it has held still for
// 50 ms, so goroutines of earlier tests that are still exiting do not
// skew a count taken after it.
func steadyGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestSessionGoroutines pins what a session costs mid-exchange now that
// its kernel runs on the session goroutine: a lockstep plain session holds
// one goroutine (its connection's), a pipelined v3 session two (plus the
// reader pump), and each further session on a mux connection one more.
func TestSessionGoroutines(t *testing.T) {
	s := NewServer()
	t.Cleanup(func() { s.Close() })

	count := func(name string, want int, drive func() func()) {
		t.Helper()
		base := steadyGoroutines()
		stop := drive()
		if got := goroutinesSettleAt(base + want); got != base+want {
			t.Errorf("%s holds %d goroutines mid-session, want %d", name, got-base, want)
		}
		stop()
	}
	dialPipe := func() (*rawV3, func()) {
		cli, done := pipeSession(s)
		rv := &rawV3{t: t, conn: cli, r: bufio.NewReader(cli)}
		return rv, func() {
			cli.Close()
			<-done
		}
	}
	registerBody := func(window int, mux bool) []byte {
		b, err := json.Marshal(message{Op: "register", RSL: quadRSL, MaxEvals: 60, Improved: true, Window: window, Mux: mux})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	count("lockstep JSON session", 1, func() func() {
		cli, done := pipeSession(s)
		rs := &rawSession{t: t, conn: cli, r: bufio.NewReader(cli)}
		rs.write(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }","max_evals":40}`)
		rs.read()
		rs.write(`{"op":"fetch"}`)
		if _, m := rs.read(); m.Op != "config" {
			t.Fatalf("fetch reply = %+v", m)
		}
		return func() {
			cli.Close()
			<-done
		}
	})

	count("v3 window-4 session", 2, func() func() {
		rv, stop := dialPipe()
		rv.conn.Write(v3Magic[:]) //nolint:errcheck // a failed write fails the reads below
		rv.writeFrame(opRegister, registerBody(4, false))
		if m := rv.readFrame(); m.Op != "registered" {
			t.Fatalf("register reply = %+v", m)
		}
		rv.writeFrame(opFetch, nil)
		if m := rv.readFrame(); m.Op != "config" {
			t.Fatalf("fetch reply = %+v", m)
		}
		return stop
	})

	// One mux connection: its demux and writer goroutines plus session 1,
	// then each attached session adds its own.
	rv, stopMux := dialPipe()
	rv.conn.Write(v3Magic[:]) //nolint:errcheck // a failed write fails the reads below
	rv.writeFrame(opRegister, registerBody(0, true))
	if tok, m := rv.readMuxFrame(); tok != muxToken1 || m.Op != "registered" {
		t.Fatalf("mux register reply = token %d %+v", tok, m)
	}
	rv.writeMuxFrame(opFetch, muxToken1, nil)
	if _, m := rv.readMuxFrame(); m.Op != "config" {
		t.Fatalf("mux fetch reply = %+v", m)
	}
	for tok := uint64(2); tok <= 3; tok++ {
		count(fmt.Sprintf("mux session %d", tok), 1, func() func() {
			rv.writeMuxFrame(opRegister, tok, registerBody(0, false))
			if got, m := rv.readMuxFrame(); got != tok || m.Op != "registered" {
				t.Fatalf("attach reply = token %d %+v", got, m)
			}
			rv.writeMuxFrame(opFetch, tok, nil)
			if got, m := rv.readMuxFrame(); got != tok || m.Op != "config" {
				t.Fatalf("attached fetch reply = token %d %+v", got, m)
			}
			return func() {}
		})
	}
	stopMux()
}

// lineConn is a goroutine-safe JSON line client for the flight tests,
// which must run sessions concurrently.
type lineConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialLines(t *testing.T, addr string) *lineConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &lineConn{conn: conn, r: bufio.NewReader(conn)}
}

func (lc *lineConn) write(line string) error {
	_, err := lc.conn.Write([]byte(line + "\n"))
	return err
}

// read returns the next message, or an error after wait without one.
func (lc *lineConn) read(wait time.Duration) (message, error) {
	lc.conn.SetReadDeadline(time.Now().Add(wait))
	line, err := lc.r.ReadString('\n')
	if err != nil {
		return message{}, err
	}
	var m message
	err = json.Unmarshal([]byte(line), &m)
	return m, err
}

// silent reports whether nothing arrives within d.
func (lc *lineConn) silent(d time.Duration) bool {
	_, err := lc.read(d)
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// report sends the objective's value for a config reply.
func (lc *lineConn) report(m message) error {
	perf := quadPeak(search.Config(m.Values))
	if m.ID == nil {
		return lc.write(fmt.Sprintf(`{"op":"report","perf":%v}`, perf))
	}
	return lc.write(fmt.Sprintf(`{"op":"report","id":%d,"perf":%v}`, *m.ID, perf))
}

// finishPipelined reports the given configs, tops the session's fetch
// credits up to want, and then answers every config with a report and a
// fetch until the best arrives.
func (lc *lineConn) finishPipelined(pending []message, credits, want int) (message, error) {
	for _, m := range pending {
		if err := lc.report(m); err != nil {
			return message{}, err
		}
	}
	for ; credits < want; credits++ {
		if err := lc.write(`{"op":"fetch"}`); err != nil {
			return message{}, err
		}
	}
	for {
		m, err := lc.read(5 * time.Second)
		if err != nil {
			return message{}, err
		}
		switch m.Op {
		case "best":
			return m, nil
		case "config":
			if err := lc.report(m); err != nil {
				return message{}, err
			}
			if err := lc.write(`{"op":"fetch"}`); err != nil {
				return message{}, err
			}
		default:
			return m, fmt.Errorf("unexpected reply %+v", m)
		}
	}
}

const flightRegister = `{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }\n{ harmonyBundle y { int {0 60 1} } }","app":"flight","max_evals":40,"improved":true%s}`

// TestSharedCacheLeaderDisconnectFollowerRemeasures: a session leads a
// point and disconnects before reporting it. The session following that
// point must claim it, measure it through its own client, and complete.
func TestSharedCacheLeaderDisconnectFollowerRemeasures(t *testing.T) {
	ends := make(chan SessionEnd, 2)
	_, addr := startServerWith(t, func(s *Server) {
		s.EvalCache = CacheShared
		s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	})

	leader := dialLines(t, addr)
	leader.write(fmt.Sprintf(flightRegister, ""))
	if m, err := leader.read(5 * time.Second); err != nil || m.Op != "registered" {
		t.Fatalf("leader register: %+v %v", m, err)
	}
	leader.write(`{"op":"fetch"}`)
	led, err := leader.read(5 * time.Second)
	if err != nil || led.Op != "config" {
		t.Fatalf("leader fetch: %+v %v", led, err)
	}

	follower := dialLines(t, addr)
	follower.write(fmt.Sprintf(flightRegister, ""))
	if m, err := follower.read(5 * time.Second); err != nil || m.Op != "registered" {
		t.Fatalf("follower register: %+v %v", m, err)
	}
	follower.write(`{"op":"fetch"}`)
	// Same registration, same first point: the follower waits on the
	// leader's flight instead of measuring it too.
	if !follower.silent(150 * time.Millisecond) {
		t.Fatal("follower was answered while the leader still measured its point")
	}

	leader.conn.Close()
	got, err := follower.read(5 * time.Second)
	if err != nil || got.Op != "config" || !search.Config(got.Values).Equal(search.Config(led.Values)) {
		t.Fatalf("after the leader left, follower got %+v (%v), want the abandoned point %v", got, err, led.Values)
	}
	for m := got; m.Op != "best"; {
		if err := follower.report(m); err != nil {
			t.Fatal(err)
		}
		if ack, err := follower.read(5 * time.Second); err != nil || ack.Op != "ok" {
			t.Fatalf("report ack = %+v %v", ack, err)
		}
		follower.write(`{"op":"fetch"}`)
		if m, err = follower.read(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	completed := 0
	for i := 0; i < 2; i++ {
		select {
		case e := <-ends:
			if e.Completed {
				completed++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a session never ended")
		}
	}
	if completed != 1 {
		t.Fatalf("%d sessions completed, want the follower alone", completed)
	}
}

// TestSharedCacheCrossedFlightsComplete: two window-2 sessions each lead a
// point the other follows. Neither may wait on the other blocked — both
// complete.
func TestSharedCacheCrossedFlightsComplete(t *testing.T) {
	_, addr := startServerWith(t, func(s *Server) { s.EvalCache = CacheShared })
	a, b := dialLines(t, addr), dialLines(t, addr)
	for _, lc := range []*lineConn{a, b} {
		lc.write(fmt.Sprintf(flightRegister, `,"window":2`))
		if m, err := lc.read(5 * time.Second); err != nil || m.Op != "registered" {
			t.Fatalf("register: %+v %v", m, err)
		}
	}
	// a leads the first initial vertex.
	a.write(`{"op":"fetch"}`)
	a0, err := a.read(5 * time.Second)
	if err != nil || a0.Op != "config" {
		t.Fatalf("a fetch: %+v %v", a0, err)
	}
	// b follows it and leads the other two.
	b.write(`{"op":"fetch"}`)
	b.write(`{"op":"fetch"}`)
	var bPending []message
	for i := 0; i < 2; i++ {
		m, err := b.read(5 * time.Second)
		if err != nil || m.Op != "config" {
			t.Fatalf("b fetch %d: %+v %v", i, m, err)
		}
		if search.Config(m.Values).Equal(search.Config(a0.Values)) {
			t.Fatalf("b was handed %v, the point a leads", m.Values)
		}
		bPending = append(bPending, m)
	}
	// a now follows both of b's points: nothing to hand out.
	a.write(`{"op":"fetch"}`)
	if !a.silent(150 * time.Millisecond) {
		t.Fatal("a was answered while b measured every remaining point")
	}

	type outcome struct {
		best message
		err  error
	}
	results := make(chan outcome, 2)
	go func() {
		best, err := a.finishPipelined([]message{a0}, 1, 2)
		results <- outcome{best, err}
	}()
	go func() {
		best, err := b.finishPipelined(bPending, 0, 2)
		results <- outcome{best, err}
	}()
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil || r.best.Perf < 980 {
				t.Fatalf("session ended with %+v: %v", r.best, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("crossed sessions did not complete")
		}
	}
}

// TestMaxEvalsCapZeroKeepsClientBudget: a cap of 0 is the documented
// default, not "unlimited" — a client asking for 20 evaluations gets at
// most 20.
func TestMaxEvalsCapZeroKeepsClientBudget(t *testing.T) {
	_, addr := startServerWith(t, func(s *Server) { s.MaxEvalsCap = 0 })
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 20, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}
	if best.Evals > 20 {
		t.Fatalf("session ran %d evaluations, want at most the 20 requested", best.Evals)
	}
}

// halfConn is the server end of an in-memory connection built from two
// io.Pipes. Unlike net.Pipe, the client can close its sending half alone:
// the server reads EOF, and the client still reads every reply until the
// server closes.
type halfConn struct {
	r *io.PipeReader // client → server
	w *io.PipeWriter // server → client
}

func (c halfConn) Read(p []byte) (int, error)     { return c.r.Read(p) }
func (c halfConn) Write(p []byte) (int, error)    { return c.w.Write(p) }
func (c halfConn) Close() error                   { c.r.Close(); return c.w.Close() }
func (halfConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (halfConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (halfConn) SetDeadline(time.Time) error      { return nil }
func (halfConn) SetReadDeadline(time.Time) error  { return nil }
func (halfConn) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// replyStream serves one session on a fresh server, feeds it the client
// bytes chunk by chunk (one write each), closes the client's sending half,
// and returns every byte the server sent until it hung up.
func replyStream(t *testing.T, hyperband bool, chunks [][]byte) []byte {
	s := NewServer()
	if hyperband {
		s.SearchKernel = KernelHyperband
	}
	toSrv, fromCli := io.Pipe()
	toCli, fromSrv := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handle(halfConn{r: toSrv, w: fromSrv})
	}()
	replies := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(toCli)
		replies <- b
	}()
	for _, c := range chunks {
		if _, err := fromCli.Write(c); err != nil {
			break // the session ended early
		}
	}
	fromCli.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("session never ended")
	}
	return <-replies
}

// FuzzSessionJSON feeds arbitrary client bytes through one in-process
// JSON session — the register body, then fetch/report lines — on the
// simplex and the hyperband kernel. Whatever arrives, the server must not
// panic, must end the session exactly once, and must leave no goroutine
// behind.
//
// The reply stream must not depend on how the bytes were segmented: the
// input sent as one write and sent one line per write earn byte-identical
// replies. A lockstep server that holds a report ack while the next line
// is buffered must neither lose nor reorder it. Pipelined sessions
// (window > 1) are exempt: their replies depend on the reader goroutine's
// timing.
func FuzzSessionJSON(f *testing.F) {
	const quad = `"rsl":"{ harmonyBundle x { int {0 60 1} } }\n{ harmonyBundle y { int {0 60 1} } }"`
	lines := func(ls ...string) []byte {
		var b []byte
		for _, l := range ls {
			b = append(b, l...)
			b = append(b, '\n')
		}
		return b
	}
	// The byte-pinned v1 transcript's client side.
	f.Add(lines(`{"op":"register",`+quad+`,"max_evals":60,"improved":true}`,
		`{"op":"fetch"}`, `{"op":"report","perf":-1215}`,
		`{"op":"fetch"}`, `{"op":"report","perf":595}`, `{"op":"quit"}`), false)
	// A v2 window-4 exchange, reports out of order.
	f.Add(lines(`{"op":"register",`+quad+`,"max_evals":40,"improved":true,"window":4}`,
		`{"op":"fetch"}`, `{"op":"fetch"}`, `{"op":"fetch"}`, `{"op":"fetch"}`,
		`{"op":"report","id":2,"perf":10}`, `{"op":"report","id":0,"perf":20}`,
		`{"op":"report","id":1,"perf":30}`, `{"op":"fetch"}`), false)
	// A restricted spec searched through the adapter.
	f.Add(lines(`{"op":"register","rsl":"{ harmonyBundle B { int {1 8 1} } }\n{ harmonyBundle C { int {1 9-$B 1} } }","max_evals":30,"improved":true}`,
		`{"op":"fetch"}`, `{"op":"report","perf":3}`, `{"op":"fetch"}`), false)
	// A hyperband session's reduced-fidelity exchange.
	f.Add(lines(`{"op":"register",`+quad+`,"max_evals":40,"improved":true,"window":2}`,
		`{"op":"fetch"}`, `{"op":"fetch"}`, `{"op":"report","id":0,"perf":900}`,
		`{"op":"report","id":1,"perf":950}`, `{"op":"fetch"}`), true)
	// A coalescing client's report+fetch pairs.
	f.Add(lines(`{"op":"register",`+quad+`,"max_evals":60,"improved":true}`,
		`{"op":"fetch"}`, `{"op":"report","perf":-1215}`, `{"op":"fetch"}`,
		`{"op":"report","perf":595}`, `{"op":"fetch"}`, `{"op":"quit"}`), false)
	// A report followed by garbage: the held ack must still go out.
	f.Add(lines(`{"op":"register",`+quad+`,"max_evals":60,"improved":true}`,
		`{"op":"fetch"}`, `{"op":"report","perf":-1215}`, `not json`), false)

	f.Fuzz(func(t *testing.T, data []byte, hyperband bool) {
		if len(data) > 0 && data[0] == v3Magic[0] {
			t.Skip("binary framing: FuzzV3FrameDecode covers it")
		}
		base := runtime.NumGoroutine()
		s := NewServer()
		if hyperband {
			s.SearchKernel = KernelHyperband
		}
		var ends atomic.Int32
		s.OnSessionEnd = func(SessionEnd) { ends.Add(1) }

		cli, done := pipeSession(s)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, cli) //nolint:errcheck // drains until close
		}()
		cli.Write(data) //nolint:errcheck // the session may end early
		cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("session never ended")
		}
		<-drained
		if n := ends.Load(); n != 1 {
			t.Fatalf("OnSessionEnd ran %d times, want 1", n)
		}
		if n := goroutinesSettleAt(base); n > base {
			t.Fatalf("%d goroutines left behind", n-base)
		}

		first, _, _ := bytes.Cut(data, []byte{'\n'})
		if reg, err := decode(first); err == nil && reg.Window > 1 {
			return
		}
		var perLine [][]byte
		for _, l := range bytes.SplitAfter(data, []byte{'\n'}) {
			if len(l) > 0 {
				perLine = append(perLine, l)
			}
		}
		whole := replyStream(t, hyperband, [][]byte{data})
		if split := replyStream(t, hyperband, perLine); !bytes.Equal(whole, split) {
			t.Fatalf("replies depend on segmentation:\none write:   %q\nline writes: %q", whole, split)
		}
	})
}

// TestKernelPanicFailsOnlyItsSession: a panic inside kernel code — here a
// trace sink that blows up on the first simplex operation, which the kernel
// emits on the session goroutine — fails that session with a protocol
// error and leaves the server serving the next one.
func TestKernelPanicFailsOnlyItsSession(t *testing.T) {
	var tripped atomic.Bool
	ends := make(chan SessionEnd, 2)
	_, addr := startServerWith(t, func(s *Server) {
		s.Tracer = search.TracerFunc(func(e search.Event) {
			if e.Type == search.EventSimplex && tripped.CompareAndSwap(false, true) {
				panic("sink exploded")
			}
		})
		s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	})
	for i, wantErr := range []bool{true, false} {
		c := dial(t, addr)
		if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 40, Improved: true}); err != nil {
			t.Fatal(err)
		}
		_, err := c.Tune(quadPeak)
		if (err != nil) != wantErr {
			t.Fatalf("session %d: Tune err = %v, want error %v", i, err, wantErr)
		}
		e := <-ends
		if wantErr && (e.Err == nil || e.Err.Error() != "server: kernel panic: sink exploded") {
			t.Fatalf("session %d ended with %v, want the kernel panic", i, e.Err)
		}
		if !wantErr && !e.Completed {
			t.Fatalf("session %d after the panic did not complete: %v", i, e.Err)
		}
	}
}
