package core

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// errBecameRoot is the internal signal that this rank discovered it is
// the new root (Section III-D) and must regain control of the iteration.
var errBecameRoot = errors.New("core: became root")

// node is the per-rank state of the fault-tolerant ring.
type node struct {
	p   *mpi.Proc
	c   *mpi.Comm
	cfg Config

	me   int
	size int
	pl   int // current left neighbor (comm rank)
	pr   int // current right neighbor (comm rank)
	root int

	curMarker int64   // the iteration this rank expects next
	lastSent  Message // last buffer passed to the right (for resends)
	haveSent  bool

	detector *mpi.Request // Fig. 9: Irecv posted to pr as failure detector
	detTo    int          // comm rank the detector is posted to (-1: none)
	stash    [][]byte     // payloads rescued from retired requests, FIFO

	// enc is the send buffer, reused from hop to hop: Comm.Send copies the
	// payload whenever the fabric keeps it after Send returns.
	enc []byte

	stats Stats
}

// Body returns the rank function for the configured ring, recording
// per-rank stats into report (which must be sized to the world). It is
// exported so examples and benchmarks can compose the ring with their own
// world configuration.
func Body(cfg Config, report *Report) func(p *mpi.Proc) error {
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	return func(p *mpi.Proc) error {
		n := &node{
			p: p, c: p.World(), cfg: cfg,
			me: p.Rank(), size: p.Size(), detTo: -1,
		}
		// Fig. 3 line 10: the one-line change that makes everything else
		// possible.
		n.c.SetErrhandler(mpi.ErrorsReturn)
		// Stats are recorded even when this rank is killed or aborted (the
		// goroutine unwinds through this defer): scenario tests inspect
		// what a dead rank had done up to its death. FinalRoot comes from
		// the registry, not an MPI call — dead ranks must not re-enter MPI.
		defer func() {
			if lowest, ok := p.Registry().LowestAlive(); ok {
				n.stats.FinalRoot = lowest
			} else {
				n.stats.FinalRoot = -1
			}
			report.put(n.me, n.stats)
		}()
		return n.run()
	}
}

// Run executes the ring over a fresh world built from mcfg, wiring the
// report automatically. Most callers (tests, benchmarks, cmd/ftring) use
// this entry point.
func Run(mcfg mpi.Config, cfg Config) (*Report, *mpi.RunResult, error) {
	// An Option is func(*Config), so the assembled struct feeds straight
	// into the functional-options constructor.
	w, err := mpi.NewWorld(mcfg.Size, func(c *mpi.Config) { *c = mcfg })
	if err != nil {
		return nil, nil, err
	}
	report := NewReport(mcfg.Size)
	res, err := w.Run(Body(cfg, report))
	return report, res, err
}

func (n *node) run() error {
	if n.cfg.Variant == VariantUnaware {
		return n.runUnaware()
	}

	n.pr = n.toRightOf(n.me)
	n.pl = n.toLeftOf(n.me)
	n.root = n.currentRoot()

	if err := n.mainLoop(); err != nil {
		return err
	}
	err := n.terminate()
	if err == nil {
		n.stats.Terminated = true
	}
	n.dropDetector()
	return err
}

// runUnaware is Fig. 2 verbatim: neighbor arithmetic with no liveness
// checks, plain blocking send/recv, no termination protocol.
func (n *node) runUnaware() error {
	right := (n.me + 1) % n.size
	left := n.me - 1
	if n.me == 0 {
		left = n.size - 1
	}
	n.root = 0
	for i := 0; i < n.cfg.Iters; i++ {
		if n.me == n.root {
			msg := Message{Value: 1, Marker: int64(i)}
			if err := n.c.Send(right, TagRing, n.encode(msg)); err != nil {
				return err
			}
			back, err := n.recvUnaware(left)
			if err != nil {
				return err
			}
			n.absorb(back)
		} else {
			msg, err := n.recvUnaware(left)
			if err != nil {
				return err
			}
			msg.Value++
			if err := n.c.Send(right, TagRing, n.encode(msg)); err != nil {
				return err
			}
		}
		n.stats.Iterations++
		n.p.Tracer().Record(n.me, trace.IterDone, -1, -1, int(i), "")
		n.p.Metrics().Inc(n.me, metrics.Iterations)
	}
	return nil
}

// recvUnaware is Fig. 2's blocking receive from the left, consuming its
// read the way the fault-aware ring does: the payload is decoded where it
// arrived and handed back (Request.Release), where Recv would copy a
// pooled read out for its caller to keep.
func (n *node) recvUnaware(left int) (Message, error) {
	req := n.c.Irecv(left, TagRing)
	st, err := req.Wait()
	if err != nil {
		release(req) // a failed receive holds no payload
		return Message{}, err
	}
	n.p.Tracer().Record(n.me, trace.RecvCompleted, st.Source, st.Tag, -1, "")
	msg, err := DecodeMessage(req.Payload())
	release(req)
	return msg, err
}

// mainLoop runs Fig. 3's iteration loop, switching into the root role if
// this rank inherits it (Section III-D).
func (n *node) mainLoop() error {
	for n.curMarker < int64(n.cfg.Iters) {
		var err error
		if n.root == n.me {
			err = n.rootIteration()
		} else {
			err = n.memberIteration()
		}
		switch {
		case err == nil:
		case errors.Is(err, errBecameRoot):
			n.p.Tracer().Record(n.me, trace.Elected, n.me, -1, int(n.curMarker), "assumed root role")
			n.stats.BecameRoot = true
			// Loop re-enters as root at curMarker: the regained control
			// point the paper's Section III-D describes.
		default:
			return err
		}
	}
	return nil
}

// absorb records the value that accumulated around the ring. The map is
// made, sized for every lap, on the first absorption: only a root ever
// absorbs, and it then absorbs up to cfg.Iters laps.
func (n *node) absorb(back Message) {
	if n.stats.RootValues == nil {
		n.stats.RootValues = make(map[int64]int64, n.cfg.Iters)
	}
	n.stats.RootValues[back.Marker] = back.Value
}

// rootIteration is the root side of Fig. 3: originate the buffer for the
// current iteration, then absorb it when it returns.
func (n *node) rootIteration() error {
	msg := Message{Value: 1, Marker: n.curMarker}
	if err := n.ftSendRight(msg); err != nil {
		return err
	}
	back, err := n.ftRecvLeft()
	if err != nil {
		return err
	}
	n.absorb(back)
	n.stats.Iterations++
	if tr := n.p.Tracer(); tr != nil { // the note is formatted only for a recorder that keeps it
		tr.Record(n.me, trace.IterDone, -1, -1, int(back.Marker), fmt.Sprintf("value=%d", back.Value))
	}
	n.p.Metrics().Inc(n.me, metrics.Iterations)
	n.curMarker++
	return nil
}

// memberIteration is the non-root side of Fig. 3: receive from the left,
// increment, pass to the right, and only then advance the local marker
// (Fig. 3 line 25).
func (n *node) memberIteration() error {
	msg, err := n.ftRecvLeft()
	if err != nil {
		return err
	}
	msg.Value++
	if err := n.ftSendRight(msg); err != nil {
		return err
	}
	n.curMarker = msg.Marker + 1
	n.stats.Iterations++
	n.p.Tracer().Record(n.me, trace.IterDone, -1, -1, int(msg.Marker), "")
	n.p.Metrics().Inc(n.me, metrics.Iterations)
	return nil
}
