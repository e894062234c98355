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
// Ordering: one outbound connection exists per destination and Send
// writes to it under the connection's mutex, either to the socket or
// behind the bytes already waiting in its backlog, so packets from any
// given source to a destination are FIFO — the ordering the matching
// engine requires.
//
// Sending: Send never waits on a peer. It encodes only the frame header
// (the frame CRC covers the payload too) and, when nothing is waiting
// ahead of it, makes one non-blocking writev of header and payload, so
// the payload is copied once, by the kernel. Whatever the socket does not
// take is copied to the connection's backlog, and a flusher goroutine,
// started only then, drains it with blocking writes and exits once it is
// empty. Frames sent meanwhile queue behind it, so a burst, or many
// senders fanning in on one destination, shares its writes. There is no
// global send lock: sends to distinct destinations proceed in parallel.
//
// Receiving: one read loop per inbound connection reads through a small
// buffer; a payload larger than it is read straight from the socket into
// its pooled buffer. Each frame arrives as a pooled packet (ReadFrame)
// that the delivery callback's consumer recycles.
type TCP struct {
	n int

	started atomic.Bool
	closed  atomic.Bool

	mu        sync.Mutex // guards Start/Close bookkeeping only
	listeners []net.Listener
	conns     []*tcpConn
	deliver   DeliverFunc // written once in Start, before any reader starts

	wg      sync.WaitGroup // accept + read loops
	flushWg sync.WaitGroup // backlog flushers

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
	conn  *net.TCPConn
	vw    vecWriter

	hdr [FrameHeaderSize]byte // the header of the frame being sent

	// backlog holds, in Send order, the bytes the socket has not taken
	// yet. While flushing, a flusher owns the socket and drains the
	// backlog; spare is the buffer it last wrote, reused as the next
	// backlog.
	backlog  []byte
	spare    []byte
	flushing bool
}

// NewTCP creates a TCP fabric for n ranks. Listeners are created in
// Start.
func NewTCP(n int) *TCP { return &TCP{n: n} }

// NonRetainingSend marks that TCP.Send keeps no reference to the packet
// or its payload once it returns: the bytes are in the kernel or copied to
// the connection's backlog, so callers may immediately reuse or release
// them.
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
		t.conns[i] = &tcpConn{rank: i, addr: ln.Addr().String()}
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
	// A small buffer batches the reads of small frames; bufio hands a
	// read at least this large straight to the socket, so a bigger payload
	// lands in its pooled buffer without a staging copy.
	br := bufio.NewReaderSize(conn, 4<<10)
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
			pkt.Release() // never delivered: nobody else holds it
			return
		}
		t.deliver(pkt.Dst, pkt)
	}
}

// Send frames the packet onto the cached connection to pkt.Dst, dialing on
// first use. It never waits on the peer: what the socket does not take at
// once waits in the connection's backlog. Sends racing Close, and sends to
// destinations whose endpoint is already torn down (dial failure, broken
// connection), are dropped silently: fail-stop semantics are the engine's
// concern, and packets to dead ranks vanish as a real network would
// deliver them to a dead process.
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
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// The header goes into the connection's scratch: one on the stack
	// would escape to the heap through the CRC.
	if err := putFrameHeader(&tc.hdr, pkt); err != nil {
		return err // malformed packet: a caller bug, not a network condition
	}
	// Checked again under the lock: Close waits only for the flushers
	// started before it took each connection's lock.
	if t.closed.Load() || !tc.dialLocked(t, pkt.Src) {
		return nil // torn-down destination or racing Close: silent drop
	}
	if tc.flushing {
		tc.backlog = append(tc.backlog, tc.hdr[:]...)
		tc.backlog = append(tc.backlog, pkt.Payload...)
		return nil
	}
	n, err := tc.vw.tryWrite(tc.hdr[:], pkt.Payload)
	if err != nil {
		tc.state = connDown // peer torn down: drop this and every later frame
		return nil
	}
	if n == FrameHeaderSize+len(pkt.Payload) {
		return nil
	}
	if n < FrameHeaderSize {
		tc.backlog = append(tc.backlog, tc.hdr[n:]...)
		n = FrameHeaderSize
	}
	tc.backlog = append(tc.backlog, pkt.Payload[n-FrameHeaderSize:]...)
	tc.flushing = true
	t.flushWg.Add(1)
	go t.flushLoop(tc)
	return nil
}

// dialLocked dials the destination on first use and reports whether the
// connection is usable. src is the sending rank, used only to
// contextualize a dial failure.
func (tc *tcpConn) dialLocked(t *TCP, src int) bool {
	switch tc.state {
	case connUp:
		return true
	case connDown:
		return false
	}
	conn, err := net.Dial("tcp", tc.addr)
	if err == nil {
		tc.conn = conn.(*net.TCPConn)
		err = tc.vw.init(tc.conn)
	}
	if err != nil {
		tc.state = connDown
		t.recordErr(fmt.Errorf("transport: dial rank %d -> rank %d (%s): %w", src, tc.rank, tc.addr, err))
		return false
	}
	tc.state = connUp
	return true
}

// flushLoop drains the connection's backlog with blocking writes, each
// taking everything queued so far, and exits once it is empty. A failed
// write (peer torn down, or Close's write deadline passed) drops the rest.
func (t *TCP) flushLoop(tc *tcpConn) {
	defer t.flushWg.Done()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for len(tc.backlog) > 0 && tc.state == connUp {
		buf, conn := tc.backlog, tc.conn
		tc.backlog, tc.spare = tc.spare[:0], nil
		tc.mu.Unlock()
		_, err := conn.Write(buf)
		tc.mu.Lock()
		if cap(buf) <= maxPooledCap {
			tc.spare = buf[:0] // a giant burst does not pin its buffer
		}
		if err != nil {
			tc.state = connDown
		}
	}
	tc.backlog = tc.backlog[:0]
	tc.flushing = false
}

// Close shuts down the fabric: flushers drain their backlogs, then
// listeners and connections are torn down and the accept/read loops are
// awaited. Sends racing Close are dropped silently.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.mu.Lock()
	conns, listeners := t.conns, t.listeners
	t.mu.Unlock()
	// Phase 1: let the flushers drain. Readers are still alive, so a
	// backlog cannot wait forever; the write deadline bounds the
	// pathological case of a reader that already died.
	for _, tc := range conns {
		if tc == nil {
			continue
		}
		tc.mu.Lock()
		if tc.state == connUp {
			_ = tc.conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		}
		tc.mu.Unlock()
	}
	t.flushWg.Wait()
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
