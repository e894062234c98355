package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP is a loopback-socket fabric: every rank owns a listener on
// 127.0.0.1, and packets travel over cached connections as the binary
// frames of codec.go. It drives the exact same engine code as the Local
// fabric through a real network stack, which is what the E15 transport
// experiment compares.
//
// Ordering: one outbound connection exists per destination and frames are
// handed to its writer goroutine in Send order, so packets from any given
// source to a destination are FIFO — the ordering the matching engine
// requires.
//
// Concurrency: there is no global send lock. Send touches only the
// per-destination connection state, so sends to distinct destinations
// proceed in parallel. Send encodes the frame into a pooled buffer and
// enqueues it on the connection's writer, which coalesces whatever is
// queued into one buffered write and flushes explicitly once the queue is
// empty.
type TCP struct {
	n int

	started atomic.Bool
	closed  atomic.Bool

	mu        sync.Mutex // guards Start/Close bookkeeping only
	listeners []net.Listener
	conns     []*tcpConn
	deliver   DeliverFunc // written once in Start, before any reader starts

	wg        sync.WaitGroup // accept + read loops
	wgWriters sync.WaitGroup // per-connection write loops

	errMu sync.Mutex
	errs  []error // enriched dial/accept/read failures, see Errors
}

// recordErr remembers an enriched network failure for Errors. Failures
// during or after Close are expected teardown noise and are not recorded.
func (t *TCP) recordErr(err error) {
	if t.closed.Load() {
		return
	}
	t.errMu.Lock()
	t.errs = append(t.errs, err)
	t.errMu.Unlock()
}

// Errors returns the dial/accept/read failures observed so far, each
// wrapped with the rank and address context of the link it occurred on
// (e.g. "dial rank 3 -> rank 5 (127.0.0.1:44321)"). The Fabric contract
// still drops such packets silently — fail-stop is the engine's concern —
// but the enriched errors make post-mortems actionable.
func (t *TCP) Errors() []error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return append([]error(nil), t.errs...)
}

// connState tracks the lifecycle of one outbound connection.
type connState uint8

const (
	connIdle connState = iota // not dialed yet
	connUp                    // dialed, usable
	connDown                  // dial failed or torn down: drop silently
)

type tcpConn struct {
	rank int // destination rank this connection leads to
	addr string

	mu    sync.Mutex
	state connState
	conn  net.Conn

	// Encoded frames travel Send -> writeLoop here.
	frames chan *frameBuf
	done   chan struct{}
}

// NewTCP creates a TCP fabric for n ranks. Listeners are created in
// Start.
func NewTCP(n int) *TCP { return &TCP{n: n} }

// NonRetainingSend marks that TCP.Send copies everything it needs (into
// an encoded frame) before returning: callers may immediately reuse or
// release the packet and its payload.
func (t *TCP) NonRetainingSend() {}

// Start opens one loopback listener per rank and begins accepting.
func (t *TCP) Start(deliver DeliverFunc) error {
	if deliver == nil {
		return errors.New("transport: nil delivery callback")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deliver != nil {
		return errors.New("transport: TCP.Start called twice")
	}
	t.deliver = deliver
	t.listeners = make([]net.Listener, t.n)
	t.conns = make([]*tcpConn, t.n)
	for i := 0; i < t.n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				_ = t.listeners[j].Close()
			}
			t.deliver = nil
			return fmt.Errorf("transport: listen for rank %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.conns[i] = &tcpConn{
			rank:   i,
			addr:   ln.Addr().String(),
			frames: make(chan *frameBuf, 256),
			done:   make(chan struct{}),
		}
		t.wg.Add(1)
		go t.acceptLoop(i, ln)
	}
	t.started.Store(true)
	return nil
}

func (t *TCP) acceptLoop(rank int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				t.recordErr(fmt.Errorf("transport: accept for rank %d (%s): %w", rank, ln.Addr(), err))
			}
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(rank, conn)
	}
}

func (t *TCP) readLoop(rank int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var hdr [FrameHeaderSize]byte
	for {
		pkt, err := ReadFrame(br, hdr[:])
		if err != nil {
			if err != io.EOF {
				t.recordErr(fmt.Errorf("transport: read for rank %d (%s <- %s): %w",
					rank, conn.LocalAddr(), conn.RemoteAddr(), err))
			}
			return // peer closed, world shut down, or corrupt stream
		}
		if t.closed.Load() {
			pkt.ReleasePayload() // never delivered: nobody else holds it
			return
		}
		t.deliver(pkt.Dst, pkt)
	}
}

// Send frames the packet onto the cached connection to pkt.Dst, dialing on
// first use. Sends racing Close, and sends to destinations whose endpoint
// is already torn down (dial failure, broken connection), are dropped
// silently: fail-stop semantics are the engine's concern, and packets to
// dead ranks vanish as a real network would deliver them to a dead
// process.
func (t *TCP) Send(pkt *Packet) error {
	if !t.started.Load() {
		return errors.New("transport: TCP.Send before Start")
	}
	if pkt.Dst < 0 || pkt.Dst >= t.n {
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", pkt.Dst, t.n)
	}
	if t.closed.Load() {
		return nil
	}
	tc := t.conns[pkt.Dst]
	fb := getFrameBuf()
	b, err := AppendFrame(fb.b, pkt)
	if err != nil {
		putFrameBuf(fb)
		return err // malformed packet: a caller bug, not a network condition
	}
	fb.b = b
	if !tc.ensureDialed(t, pkt.Src) {
		putFrameBuf(fb)
		return nil // torn-down destination or racing Close: silent drop
	}
	select {
	case tc.frames <- fb:
		return nil
	case <-tc.done:
		putFrameBuf(fb)
		return nil // closed while waiting: silent drop
	}
}

// ensureDialed dials the destination on first use and starts its write
// loop. It reports whether the connection is usable. src is the sending
// rank, used only to contextualize a dial failure.
func (tc *tcpConn) ensureDialed(t *TCP, src int) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	switch tc.state {
	case connUp:
		return true
	case connDown:
		return false
	}
	conn, err := net.Dial("tcp", tc.addr)
	if err != nil {
		tc.state = connDown
		t.recordErr(fmt.Errorf("transport: dial rank %d -> rank %d (%s): %w", src, tc.rank, tc.addr, err))
		return false
	}
	tc.conn = conn
	tc.state = connUp
	t.wgWriters.Add(1)
	go t.writeLoop(tc, conn)
	return true
}

// writeLoop drains the frame queue onto the socket. Queued frames are
// coalesced into one buffered write and flushed explicitly once the queue
// is momentarily empty — small ring messages share syscalls without ever
// sitting unflushed.
func (t *TCP) writeLoop(tc *tcpConn, conn net.Conn) {
	defer t.wgWriters.Done()
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		select {
		case <-tc.done:
			t.drainAndFlush(tc, bw)
			return
		case fb := <-tc.frames:
			_, err := bw.Write(fb.b)
			putFrameBuf(fb)
			// Coalesce whatever else is already queued.
			for more := err == nil; more; {
				select {
				case fb := <-tc.frames:
					_, err = bw.Write(fb.b)
					putFrameBuf(fb)
					more = err == nil
				default:
					more = false
				}
			}
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				// Peer torn down: keep consuming frames so senders never
				// block on a dead destination (silent-drop semantics).
				for {
					select {
					case fb := <-tc.frames:
						putFrameBuf(fb)
					case <-tc.done:
						return
					}
				}
			}
		}
	}
}

// drainAndFlush performs the graceful-shutdown write: everything already
// queued is written and flushed (bounded by the write deadline Close set)
// before the writer exits.
func (t *TCP) drainAndFlush(tc *tcpConn, bw *bufio.Writer) {
	for {
		select {
		case fb := <-tc.frames:
			_, _ = bw.Write(fb.b)
			putFrameBuf(fb)
		default:
			_ = bw.Flush()
			return
		}
	}
}

// Close shuts down the fabric: writers drain and flush their queues, then
// listeners and connections are torn down and the accept/read loops are
// awaited. Sends racing Close are dropped silently.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.mu.Lock()
	conns, listeners := t.conns, t.listeners
	t.mu.Unlock()
	// Phase 1: stop the writers gracefully. Readers are still alive, so a
	// final flush cannot block indefinitely; the write deadline bounds the
	// pathological case of a reader that already died.
	for _, tc := range conns {
		if tc == nil {
			continue
		}
		tc.mu.Lock()
		if tc.state == connUp {
			_ = tc.conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		}
		close(tc.done)
		tc.mu.Unlock()
	}
	t.wgWriters.Wait()
	// Phase 2: tear down sockets and wait for the accept/read loops.
	for _, ln := range listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	for _, tc := range conns {
		if tc == nil {
			continue
		}
		tc.mu.Lock()
		if tc.conn != nil {
			_ = tc.conn.Close()
		}
		tc.state = connDown
		tc.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
