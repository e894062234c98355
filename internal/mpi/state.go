package mpi

import (
	"fmt"

	"repro/internal/transport"
)

// Neighbor state recovery (elastic worlds): a reincarnated rank starts
// with empty application state, so the runtime offers a tiny pull
// protocol over its own fabric. Each rank may register a StateProvider —
// a function serializing whatever the application would need to adopt
// the rank's role — and any rank may FetchState from an alive peer. The
// heat workload uses this to hand a respawned rank its block and step.
//
// The protocol is two KindState frames: a request (ctxStateReq, tag =
// request id) and a reply (ctxStateRep, same tag, payload = one presence
// byte + provider bytes). Replies travel through the reliability sublayer
// like data; liveness against a dying peer comes from the failure
// detector (onPeerFailure fails pending fetches), never from timers —
// the same discipline as the rest of the runtime.

// Internal context ids for the state protocol (world p2p contexts are
// >= 0, control is -2, a replica's wildcard pins are ctxPin and ctxPinAck).
const (
	ctxStateReq = -3
	ctxStateRep = -4
)

// ErrNoState reports that the queried peer is alive but has not
// registered a state provider.
var ErrNoState = fmt.Errorf("mpi: peer has no state provider registered")

type stateReply struct {
	payload []byte
	err     error
}

type stateWaiter struct {
	target int
	ch     chan stateReply // buffered(1): completers never block
}

// SetStateProvider registers fn as this rank's state serializer. fn runs
// on fabric delivery goroutines, so it must be safe to call concurrently
// with the rank's own progress and should be quick. A nil fn deregisters.
func (p *Proc) SetStateProvider(fn func() []byte) {
	e := p.eng
	e.mu.Lock()
	e.stateProvider = fn
	e.mu.Unlock()
}

// FetchState pulls the serialized application state of an alive peer
// (world rank — logical in replication mode). It blocks until the reply
// arrives, the peer is reported failed (fail-stop error), or the world
// aborts. ErrNoState reports an alive peer without a provider.
func (p *Proc) FetchState(peer int) ([]byte, error) {
	e := p.eng
	e.checkAlive()
	if peer < 0 || peer >= p.w.lsize || peer == p.rank {
		return nil, fmt.Errorf("%w: FetchState(%d)", ErrInvalidRank, peer)
	}
	e.mu.Lock()
	if e.knownFailed[peer] {
		e.mu.Unlock()
		return nil, failStop(peer)
	}
	e.stateSeq++
	id := e.stateSeq
	waiter := &stateWaiter{target: peer, ch: make(chan stateReply, 1)}
	e.stateWaiters[id] = waiter
	e.mu.Unlock()

	// In replication mode the request fans out to every live replica of
	// the logical peer: asking only the primary would hang if the primary
	// dies while a standby survives (the group death never escalates, so
	// onPeerFailure would never fail the waiter). Duplicate replies are
	// dropped by the waiter-removal path below.
	targets := []int{peer}
	if p.w.repl != nil {
		targets = p.w.repl.livePhys(peer)
		if len(targets) == 0 {
			e.mu.Lock()
			delete(e.stateWaiters, id)
			e.mu.Unlock()
			return nil, failStop(peer)
		}
	}
	var sendErr error
	for _, t := range targets {
		pkt := &transport.Packet{
			Src: e.rank, Dst: t, Tag: int(id),
			Context: ctxStateReq, Kind: transport.KindState,
		}
		e.stampGen(pkt)
		if err := e.w.fabric.Send(pkt); err != nil && sendErr == nil {
			sendErr = err
		}
	}
	if sendErr != nil {
		e.mu.Lock()
		delete(e.stateWaiters, id)
		e.mu.Unlock()
		return nil, sendErr
	}

	select {
	case rep := <-waiter.ch:
		return rep.payload, rep.err
	case <-e.downCh:
		e.mu.Lock()
		delete(e.stateWaiters, id)
		e.mu.Unlock()
		e.checkAlive() // panics killedPanic when this rank died
		return nil, ErrCancelled
	case <-e.w.abortCh:
		e.mu.Lock()
		delete(e.stateWaiters, id)
		e.mu.Unlock()
		panic(abortPanic{code: e.w.abortCode()})
	}
}

// deliverState routes a KindState frame: requests are answered with the
// provider's serialization (presence byte 1) or a bare absence byte;
// replies complete the matching waiter; a replica's wildcard pins and their
// acks go to the replication layer. Runs on delivery goroutines.
func (e *engine) deliverState(pkt *transport.Packet) {
	switch pkt.Context {
	case ctxPin:
		e.deliverPin(pkt)
	case ctxPinAck:
		e.pinAcked(pkt.Src, pkt.Tag)
	case ctxStateReq:
		e.mu.Lock()
		if e.dead.Load() || e.closed.Load() {
			e.mu.Unlock()
			return // requests to a dead rank vanish; the detector does the rest
		}
		fn := e.stateProvider
		e.mu.Unlock()
		payload := []byte{0}
		if fn != nil {
			payload = append([]byte{1}, fn()...) // provider runs outside all locks
		}
		reply := &transport.Packet{
			Src: e.rank, Dst: pkt.Src, Tag: pkt.Tag,
			Context: ctxStateRep, Kind: transport.KindState, Payload: payload,
		}
		e.stampGen(reply)
		_ = e.w.fabric.Send(reply)
	case ctxStateRep:
		e.mu.Lock()
		waiter := e.stateWaiters[uint64(pkt.Tag)]
		// The waiter's target is a logical rank; in replication mode any of
		// the peer's replicas may answer, and the first reply wins (later
		// duplicates find the waiter already removed).
		if waiter != nil && waiter.target == e.w.logicalOf(pkt.Src) {
			delete(e.stateWaiters, uint64(pkt.Tag))
		} else {
			waiter = nil
		}
		e.mu.Unlock()
		if waiter == nil {
			return // already failed by onPeerFailure, or stale duplicate
		}
		if len(pkt.Payload) == 0 || pkt.Payload[0] == 0 {
			waiter.ch <- stateReply{err: ErrNoState}
			return
		}
		waiter.ch <- stateReply{payload: pkt.Payload[1:]}
	}
}
