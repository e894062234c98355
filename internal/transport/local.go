package transport

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Local is an in-memory fabric: Send invokes the delivery callback
// directly on the sender's goroutine. Delivery is therefore synchronous
// and FIFO per sender trivially. This mirrors an eager shared-memory BTL:
// once Send returns, the packet is queued at the destination, so packets
// sent by a rank before it is killed remain deliverable — the property the
// paper's Figure 8 duplicate-message race depends on.
//
// Local does not implement NonRetaining but HandsOff: the packet pointer
// is handed to the destination engine, which may hold the payload on its
// unexpected-message queue indefinitely, so callers must not reuse or
// pool-release a payload, nor touch the packet, after Send. The receiver
// holds the packet then, and recycles it when it is marked Pooled.
//
// Send takes no lock: it reads the delivery callback and the closed flag
// atomically, so senders on different ranks share nothing here. The mutex
// only keeps a second Start from installing a second callback.
type Local struct {
	mu      sync.Mutex
	deliver atomic.Pointer[DeliverFunc]
	closed  atomic.Bool
}

// NewLocal creates an in-memory fabric.
func NewLocal() *Local { return &Local{} }

// Start records the delivery callback.
func (l *Local) Start(deliver DeliverFunc) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deliver.Load() != nil {
		return errors.New("transport: Local.Start called twice")
	}
	if deliver == nil {
		return errors.New("transport: nil delivery callback")
	}
	l.deliver.Store(&deliver)
	return nil
}

// Send delivers the packet synchronously.
func (l *Local) Send(pkt *Packet) error {
	if l.closed.Load() {
		return nil // packets into a torn-down world vanish, like the network
	}
	deliver := l.deliver.Load()
	if deliver == nil {
		return errors.New("transport: Local.Send before Start")
	}
	(*deliver)(pkt.Dst, pkt)
	return nil
}

// HandsOffSend marks that Local.Send hands the packet pointer to the
// destination and keeps no reference to it (transport.HandsOff).
func (*Local) HandsOffSend() {}

// Close marks the fabric closed; subsequent sends are dropped.
func (l *Local) Close() error {
	l.closed.Store(true)
	return nil
}
