package server

// Session multiplexing (v4-mux), server side.
//
// A v3 connection whose first register envelope carries "mux":true becomes a
// multiplexed connection hosting up to Server.MaxMuxSessions concurrent
// tuning sessions (see wire.go for the frame layout). The connection
// goroutine turns into a demultiplexer: it reads frames, routes each to its
// session's bounded inbox, and runs one goroutine per session executing the
// same serveSession loop a plain connection runs — a window-1 session reads
// its inbox inline, a window > 1 session selects on it directly.
// Replies from every session funnel through one wave-corked writer
// (corkedWriter, the same loop the client's Mux runs) that coalesces them
// into one buffered flush per wave. perfbench fleet (128 lockstep sessions
// over 2 connections, seed 1, 8 s, 2-vCPU VM) measures about 9 frames per
// server flush and about 15 per client flush.
//
// Flow control is credit-based and per-session: a session's credit is its
// inbox capacity (2×window+4 — a conforming client can never exceed its
// pipeline window plus the coalesced report+fetch in flight, so the bound is
// purely protective). A frame arriving for a full inbox is a credit stall:
// the offending session is evicted with a framed error, and the connection
// and its peer sessions continue — one stalled session never head-of-line
// blocks the rest.
//
// Error scoping mirrors the budget model of plain connections. A fault that
// names a live session (garbage payload under a valid token) charges that
// session's failure budget; a fault that does not (malformed token, unknown
// token, register misuse) is answered with a framed error on reserved token
// 0 and charged to a connection-scope budget. Frames for recently-detached
// tokens are dropped silently via a tombstone ring: a pipelined client's
// late reports racing its session's end are not faults.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
)

// DefaultMaxMuxSessions caps concurrent sessions per mux connection when
// Server.MaxMuxSessions is zero.
const DefaultMaxMuxSessions = 256

// muxToken1 is the session token the negotiation register implicitly
// attaches: the client's first session.
const muxToken1 = 1

// muxTombstones is how many recently-detached tokens each connection
// remembers. Frames for a tombstoned token are dropped silently instead of
// being charged as unknown-token faults.
const muxTombstones = 64

// muxItem is one routed inbox entry: a decoded message, or a tolerable
// garbage error to charge against the session's failure budget.
type muxItem struct {
	m   message
	err *garbageError
}

// muxSession is one session riding a mux connection. Its inbox is the
// flow-control credit; termErr (written before the inbox closes, read after
// — the close is the happens-before edge) is the terminal condition its
// message loop observes.
type muxSession struct {
	mc    *muxConn
	token uint64
	inbox chan muxItem
	// termErr is the terminal recv condition delivered by closing inbox:
	// io.EOF for a clean connection close, io.ErrUnexpectedEOF/errFrameTooBig
	// for transport death, or an eviction error.
	termErr error
	log     *slog.Logger
}

// recv implements transport over the session's inbox: the message loop
// runs unchanged, reading routed frames instead of the socket.
func (ms *muxSession) recv() (message, error) {
	it, ok := <-ms.inbox
	if !ok {
		if ms.termErr != nil {
			return message{}, ms.termErr
		}
		return message{}, io.EOF
	}
	if it.err != nil {
		return message{}, it.err
	}
	return it.m, nil
}

// send implements transport through the shared corked writer.
func (ms *muxSession) send(m message) error { return ms.mc.send(ms.token, m) }

// muxConn is one multiplexed connection's shared state: the session table,
// the corked writer's queue, and the tombstone ring.
type muxConn struct {
	s           *Server
	shard       int
	connID      string
	remote      string
	budget      int
	log         *slog.Logger
	maxSessions int

	// cw carries every session's replies out.
	cw *corkedWriter

	mu       sync.Mutex
	table    map[uint64]*muxSession
	tombs    [muxTombstones]uint64
	tombNext int
	// attached counts every session ever attached — the lifetime value the
	// sessions-per-connection histogram observes.
	attached int

	// wg tracks session runner goroutines; teardown waits for all of them
	// before stopping the writer.
	wg sync.WaitGroup
}

// serveMux runs a multiplexed connection whose negotiation register opened
// sess: demux loop on this goroutine, one corked-writer goroutine, one
// runner goroutine per session. sess becomes token 1.
func (s *Server) serveMux(bw *binWire, reg message, sess *session, shard int, connID, remote string) error {
	m := s.m()
	m.MuxConnections.Inc()
	defer m.MuxConnections.Dec()

	maxSessions := s.MaxMuxSessions
	if maxSessions == 0 {
		maxSessions = DefaultMaxMuxSessions
	}
	mc := &muxConn{
		s: s, shard: shard, connID: connID, remote: remote,
		budget: s.failureBudget(), log: sess.log, maxSessions: maxSessions,
		// 64 queued replies: one per session at fleet-scale fan-in (64
		// lockstep sessions per connection), so a whole wave queues while
		// the writer is inside write(2).
		cw:    newCorkedWriter(bw.fw.w, 64, bw.beforeWrite, func(n int) { m.MuxCorkedFlushFrames.Observe(float64(n)) }),
		table: map[uint64]*muxSession{},
	}
	// The negotiation register was a plain v3 frame; everything after it, in
	// both directions, carries a session token.
	bw.fr.mux = true
	go mc.cw.run()

	// A peer whose negotiation register is invalid has nothing to
	// multiplex: session 1's failed attach ends the connection.
	err := mc.attach(muxToken1, reg, sess)
	if err == nil {
		err = mc.demux(bw)
	}
	mc.teardown(err)
	// attach, the only writer of attached, runs on this goroutine.
	m.MuxSessionsPerConn.Observe(float64(mc.attached))
	return err
}

// demux is the connection's read loop: decode one frame, route it to its
// session (or handle registers, unknown tokens and connection-scope faults),
// repeat until the transport dies or the connection budget is spent.
func (mc *muxConn) demux(bw *binWire) error {
	s := mc.s
	m := s.m()
	connFaults := 0
	// connFault answers a connection-scope fault on reserved token 0 and
	// charges the connection budget; non-nil means the budget is spent and
	// the connection must die.
	connFault := func(what string) error {
		m.ProtocolErrors.Inc()
		mc.send(0, message{Op: "error", Msg: what}) //nolint:errcheck
		connFaults++
		if connFaults > mc.budget {
			return fmt.Errorf("connection failure budget exhausted (%d faults > %d): %s", connFaults, mc.budget, what)
		}
		mc.log.Warn("tolerated connection fault", "fault", connFaults, "budget", mc.budget, "what", what)
		return nil
	}

	for {
		msg, err := bw.recv()
		if err != nil {
			var g *garbageError
			if errors.As(err, &g) {
				if g.hasSess {
					// Payload garbage under a parsed token: the fault belongs
					// to that session's budget, not the connection's.
					if ms := mc.lookup(g.sess); ms != nil {
						mc.deliver(ms, muxItem{err: g})
						continue
					}
					if mc.tombstoned(g.sess) {
						continue
					}
				}
				if terr := connFault(g.Error()); terr != nil {
					return terr
				}
				continue
			}
			switch {
			case errors.Is(err, io.EOF):
				return nil // clean close between frames
			case errors.Is(err, errFrameTooBig):
				m.OversizedLines.Inc()
				m.ProtocolErrors.Inc()
				mc.send(0, message{Op: "error", Msg: oversizedMsg}) //nolint:errcheck
				return errors.New(oversizedMsg)
			case errors.Is(err, io.ErrUnexpectedEOF):
				return fmt.Errorf("server: connection died mid-frame")
			}
			return err
		}

		if msg.Op == "register" {
			if terr := mc.register(msg, connFault); terr != nil {
				return terr
			}
			continue
		}
		ms := mc.lookup(msg.sess)
		if ms == nil {
			if mc.tombstoned(msg.sess) {
				continue // a finished session's late frames: not a fault
			}
			m.MuxUnknownTokens.Inc()
			if terr := connFault(fmt.Sprintf("unknown mux session token %d", msg.sess)); terr != nil {
				return terr
			}
			continue
		}
		mc.deliver(ms, muxItem{m: msg})
	}
}

// register attaches one additional session from a tokened register envelope.
// Attach problems are per-frame outcomes (a framed error, possibly a
// connection-budget charge), never a connection kill; the returned error is
// non-nil only when the budget is spent.
func (mc *muxConn) register(reg message, connFault func(string) error) error {
	s := mc.s
	m := s.m()
	tok := reg.sess
	if tok == 0 {
		return connFault("mux register with reserved session token 0")
	}
	mc.mu.Lock()
	_, live := mc.table[tok]
	full := len(mc.table) >= mc.maxSessions
	mc.mu.Unlock()
	if live {
		return connFault(fmt.Sprintf("mux register reuses live session token %d", tok))
	}
	if full {
		// Not a budget charge: the limit is a capacity answer the client can
		// retry after a session finishes, not misbehaviour.
		m.ProtocolErrors.Inc()
		mc.send(tok, message{Op: "error", Msg: fmt.Sprintf("mux session limit reached (%d)", mc.maxSessions)}) //nolint:errcheck
		return nil
	}
	mc.attach(tok, reg, s.openSession(mc.remote, mc.connID)) //nolint:errcheck // a failed attach ended its session
	return nil
}

// attach registers sess on token tok, installs it in the table and launches
// its runner goroutine. A session whose registration fails is answered on
// its token and ended here.
func (mc *muxConn) attach(tok uint64, reg message, sess *session) error {
	s := mc.s
	ms := &muxSession{mc: mc, token: tok, log: sess.log}
	lo := loop{s: s, sess: sess, tr: ms, proto: 3, shard: mc.shard, budget: mc.budget, token: tok}
	if err := s.register(sess, reg, lo); err != nil {
		s.endSession(sess, err)
		return err
	}
	// The session's flow-control credit: a conforming client holds at most
	// window configs plus a coalesced report+fetch in flight, so 2×window+4
	// only ever fills when the peer ignores the protocol's own pacing.
	ms.inbox = make(chan muxItem, 2*sess.window+4)
	lo.in, lo.term = ms.inbox, &ms.termErr
	mc.mu.Lock()
	mc.table[tok] = ms
	mc.attached++
	mc.mu.Unlock()
	mc.wg.Add(1)
	go func() {
		defer mc.wg.Done()
		err := s.serveSession(sess, lo)
		mc.detach(tok)
		s.endSession(sess, err)
	}()
	return nil
}

// lookup resolves a live session token.
func (mc *muxConn) lookup(tok uint64) *muxSession {
	mc.mu.Lock()
	ms := mc.table[tok]
	mc.mu.Unlock()
	return ms
}

// deliver routes one inbox item to a session, evicting it if its
// flow-control credit is exhausted. Called only from the demux goroutine.
func (mc *muxConn) deliver(ms *muxSession, it muxItem) {
	select {
	case ms.inbox <- it:
		return
	default:
	}
	// Credit stall: the session ignored the protocol's own pacing. Evict it
	// — framed error so the client's handle fails typed, terminal condition
	// through the inbox close — and let the connection's peers continue.
	m := mc.s.m()
	m.MuxCreditStalls.Inc()
	m.MuxEvictions.Inc()
	reason := fmt.Sprintf("session evicted: flow-control credit exhausted (token %d)", ms.token)
	mc.send(ms.token, message{Op: "error", Msg: reason}) //nolint:errcheck
	mc.mu.Lock()
	delete(mc.table, ms.token)
	mc.tomb(ms.token)
	mc.mu.Unlock()
	ms.termErr = errors.New(reason)
	close(ms.inbox)
	ms.log.Warn("mux session evicted: flow-control credit exhausted")
}

// detach removes a finished session from the table and tombstones its token
// so late frames are dropped silently.
func (mc *muxConn) detach(tok uint64) {
	mc.mu.Lock()
	if _, ok := mc.table[tok]; ok {
		delete(mc.table, tok)
		mc.tomb(tok)
	}
	mc.mu.Unlock()
}

// tomb records a detached token in the ring. Callers hold mc.mu.
func (mc *muxConn) tomb(tok uint64) {
	mc.tombs[mc.tombNext%muxTombstones] = tok
	mc.tombNext++
}

// tombstoned reports whether a token was recently detached.
func (mc *muxConn) tombstoned(tok uint64) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	n := mc.tombNext
	if n > muxTombstones {
		n = muxTombstones
	}
	for i := 0; i < n; i++ {
		if mc.tombs[i] == tok {
			return true
		}
	}
	return false
}

// send stamps the session token and queues one reply for the corked writer.
// It fails only once the writer is dead (first write error).
func (mc *muxConn) send(tok uint64, m message) error {
	m.sess, m.hasSess = tok, true
	return mc.cw.send(m)
}

// errMuxClosed is what a send to a stopped corked writer returns.
var errMuxClosed = fmt.Errorf("%w: mux closed", ErrServerGone)

// corkedWriter is the writer goroutine of one mux connection, on either
// end: senders queue tokened frames, and the writer commits them in waves,
// one flush per wave. It exits when stopped (after writing out what was
// queued) or on its first write error, which it reports to every sender
// through dead.
type corkedWriter struct {
	fw          frameWriter
	out         chan message
	stop        chan struct{} // closed by the owner to retire the writer
	dead        chan struct{} // closed on the first write error, err set before
	err         error
	failOnce    sync.Once
	done        chan struct{}    // closed when run has returned
	beforeWrite func()           // write-deadline hook; nil means none
	flushed     func(frames int) // called after each flush
}

func newCorkedWriter(w *bufio.Writer, queue int, beforeWrite func(), flushed func(frames int)) *corkedWriter {
	return &corkedWriter{
		fw:          frameWriter{w: w, mux: true},
		out:         make(chan message, queue),
		stop:        make(chan struct{}),
		dead:        make(chan struct{}),
		done:        make(chan struct{}),
		beforeWrite: beforeWrite,
		flushed:     flushed,
	}
}

// send queues one frame. It fails once the writer is dead or stopped.
func (cw *corkedWriter) send(m message) error {
	select {
	case cw.out <- m:
		return nil
	case <-cw.dead:
		return cw.err
	case <-cw.stop:
		return errMuxClosed
	}
}

// fail records the first write error and unblocks every sender.
func (cw *corkedWriter) fail(err error) {
	cw.failOnce.Do(func() {
		cw.err = err
		close(cw.dead)
	})
}

// run is the writer loop. A wave takes one queued frame, drains whatever
// else is queued, yields once so that the goroutines the last read made
// runnable (the sessions answering it) can queue their frames too, drains
// again and flushes once: many sessions' frames, one syscall. With nothing
// else runnable the yield returns at once.
func (cw *corkedWriter) run() {
	defer close(cw.done)
	for {
		var m message
		select {
		case m = <-cw.out:
		case <-cw.stop:
			// Frames queued before the stop (a final reply, a framed error
			// ahead of the close) still go out.
			select {
			case m = <-cw.out:
			default:
				return
			}
		}
		if cw.beforeWrite != nil {
			cw.beforeWrite()
		}
		n, err := cw.drain(1, cw.fw.append(m))
		if err == nil {
			runtime.Gosched()
			n, err = cw.drain(n, nil)
		}
		if err == nil {
			err = cw.fw.w.Flush()
		}
		if err != nil {
			cw.fail(err)
			return
		}
		cw.flushed(n)
	}
}

// drain appends every frame already queued, counting them onto n, until the
// queue is empty or an append fails; a non-nil err passes straight through.
func (cw *corkedWriter) drain(n int, err error) (int, error) {
	for err == nil {
		select {
		case m := <-cw.out:
			err = cw.fw.append(m)
			n++
		default:
			return n, nil
		}
	}
	return n, err
}

// teardown severs every still-attached session (its recv observes term, its
// runner unwinds and deposits a partial trace), waits for all runners, then
// retires the writer.
func (mc *muxConn) teardown(err error) {
	term := err
	if term == nil {
		// A clean connection close mid-session reads as EOF per session —
		// exactly what a plain connection's loop would have seen.
		term = io.EOF
	}
	mc.mu.Lock()
	live := make([]*muxSession, 0, len(mc.table))
	for tok, ms := range mc.table {
		live = append(live, ms)
		delete(mc.table, tok)
		mc.tomb(tok)
	}
	mc.mu.Unlock()
	for _, ms := range live {
		ms.termErr = term
		close(ms.inbox)
	}
	mc.wg.Wait()
	close(mc.cw.stop)
	<-mc.cw.done
}
