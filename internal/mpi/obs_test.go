package mpi

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObservabilityTaps drives a small world end to end and checks every
// runtime-layer histogram family that the run should populate actually
// received samples: send completion and receive wait from the engines,
// validate_all and agreement rounds from the consensus driver, and
// notification latency from the failure detector.
func TestObservabilityTaps(t *testing.T) {
	const n = 4
	reg := obs.NewRegistry(n)
	w, err := NewWorld(n,
		WithDeadline(30*time.Second),
		WithObservability(reg),
		WithNotifyDelay(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		// One ring exchange: everyone sends right, receives from left.
		// Rank 0's left neighbour sends only once rank 0 is parked in Wait,
		// so that at least one Wait finds its receive not yet done, the
		// only case recv_wait records; on the synchronous Local fabric
		// every message could otherwise be delivered before its Wait.
		if right == 0 {
			awaitParked(t, w.eng(0))
		}
		sreq := c.Isend(right, 7, []byte{byte(p.Rank())})
		rreq := c.Irecv(left, 7)
		if _, err := rreq.Wait(); err != nil {
			return err
		}
		if _, err := sreq.Wait(); err != nil {
			return err
		}
		// Rank 3 dies; everyone else agrees on the failure set.
		if p.Rank() == 3 {
			p.Die()
		}
		time.Sleep(5 * time.Millisecond) // let the notification propagate
		if _, err := c.ValidateAll(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.FinishedCount() != n-1 {
		t.Fatalf("finished %d ranks, want %d", res.FinishedCount(), n-1)
	}

	snap := reg.Snapshot()
	for _, f := range []obs.Family{obs.SendComplete, obs.RecvWait, obs.ValidateAll, obs.AgreementRound, obs.NotifyLatency} {
		if got := snap.Family(f).Merged.Count; got == 0 {
			t.Errorf("family %s recorded no samples", f)
		}
	}
	// NotifyLatency must reflect the configured 1ms detection delay.
	if nl := snap.Family(obs.NotifyLatency).Merged; nl.Max < int64(time.Millisecond) {
		t.Errorf("notify latency max %v < configured 1ms delay", time.Duration(nl.Max))
	}
	// The agreement coordinator is rank 0: its per-rank histogram holds the
	// agreement-round samples.
	if c := snap.Family(obs.AgreementRound).PerRank[0].Count; c == 0 {
		t.Errorf("agreement rounds not attributed to coordinator rank 0")
	}
}

// TestObservabilityDisabledIsFree checks a world without a registry takes
// none of the timing paths (waitStart stays zero, obs stays nil).
func TestObservabilityDisabledIsFree(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if w.Obs() != nil {
		t.Fatal("unconfigured world must have nil obs registry")
	}
	_, err = w.Run(func(p *Proc) error {
		c := p.World()
		other := 1 - p.Rank()
		if p.Rank() == 0 {
			return c.Send(other, 1, []byte("x"))
		}
		_, _, err := c.Recv(other, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
