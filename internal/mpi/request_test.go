package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestTestanyNonBlocking(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			// Wait for the go-ahead, then send.
			if _, _, err := c.Recv(1, 0); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("now"))
		}
		r := c.Irecv(0, 1)
		if ok, _, _, _ := Testany(r); ok {
			return fmt.Errorf("Testany claimed completion before any send")
		}
		if err := c.Send(0, 0, nil); err != nil {
			return err
		}
		for {
			ok, idx, st, err := Testany(r)
			if err != nil {
				return err
			}
			if ok {
				if idx != 0 || st.Tag != 1 {
					return fmt.Errorf("testany idx=%d st=%+v", idx, st)
				}
				break
			}
		}
		if ok, _, _, _ := Testany(r); ok {
			return fmt.Errorf("consumed request returned again")
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestWaitsomeReturnsBatch(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			for tag := 1; tag <= 3; tag++ {
				if err := c.Send(1, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			return nil
		}
		r1, r2, r3 := c.Irecv(0, 1), c.Irecv(0, 2), c.Irecv(0, 3)
		got := map[int]bool{}
		for len(got) < 3 {
			idxs, sts, errs, err := Waitsome(r1, r2, r3)
			if err != nil {
				return err
			}
			if len(idxs) == 0 {
				return fmt.Errorf("waitsome returned empty batch")
			}
			for k, idx := range idxs {
				if errs[k] != nil {
					return errs[k]
				}
				if got[idx] {
					return fmt.Errorf("index %d returned twice", idx)
				}
				got[idx] = true
				if sts[k].Tag != idx+1 {
					return fmt.Errorf("idx %d tag %d", idx, sts[k].Tag)
				}
			}
		}
		if _, _, _, err := Waitsome(r1, r2, r3); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("exhausted waitsome should error, got %v", err)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

// TestWaitanyReturnsEarliestCompletion: with several requests already
// complete, Waitany hands them out in the order they completed, not in
// index order. Rank 0 answers the four posted receives out of order, and a
// fifth is cancelled after all of them.
func TestWaitanyReturnsEarliestCompletion(t *testing.T) {
	sendOrder := []int{4, 2, 1, 3} // tags; receive i waits for tag i+1
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			if _, _, err := c.Recv(1, 0); err != nil { // every receive is posted
				return err
			}
			for _, tag := range sendOrder {
				if err := c.Send(1, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			return c.Send(1, 9, nil)
		}
		reqs := []*Request{c.Irecv(0, 1), c.Irecv(0, 2), c.Irecv(0, 3), c.Irecv(0, 4), c.Irecv(0, 5)}
		if err := c.Send(0, 0, nil); err != nil {
			return err
		}
		// The Local fabric delivers in send order, so once tag 9 is here
		// the four answers have completed their receives.
		if _, _, err := c.Recv(0, 9); err != nil {
			return err
		}
		reqs[4].Cancel()
		for _, want := range []int{3, 1, 0, 2, 4} {
			idx, st, err := Waitany(reqs...)
			if idx != want {
				return fmt.Errorf("waitany returned %d (tag %d), want %d", idx, st.Tag, want)
			}
			if want == 4 {
				if !errors.Is(err, ErrCancelled) {
					return fmt.Errorf("cancelled receive completed with %v", err)
				}
			} else if err != nil || st.Tag != want+1 {
				return fmt.Errorf("receive %d: tag %d, err %v", idx, st.Tag, err)
			}
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestWaitallCollectsFirstError(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			if _, _, err := c.Recv(0, 0); err != nil {
				return err
			}
			p.Die()
		}
		det := c.Irecv(1, 9) // fails when rank 1 dies
		ok := c.Irecv(1, 8)  // also fails
		if err := c.Send(1, 0, nil); err != nil {
			return err
		}
		sts, err := Waitall(det, ok, nil)
		if !IsRankFailStop(err) {
			return fmt.Errorf("waitall should surface the failure, got %v", err)
		}
		if len(sts) != 3 {
			return fmt.Errorf("statuses %v", sts)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatal(res.Ranks[0].Err)
	}
}

func TestIrecvInvalidRankCompletesWithError(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		r := p.World().Irecv(7, 0)
		if _, err := r.Wait(); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("want ErrInvalidRank, got %v", err)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestSendValidation(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		c := p.World()
		if err := c.Send(0, -5, nil); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("negative tag accepted: %v", err)
		}
		if err := c.Send(42, 0, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("bad rank accepted: %v", err)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestWorldRunTwiceRejected(t *testing.T) {
	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("second Run should be rejected, got %v", err)
	}
}

// TestNewWorldValidation exercises size validation through the one
// remaining constructor (the positional NewWorldFromConfig is gone).
func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("zero-size world accepted: %v", err)
	}
	if _, err := NewWorld(-3); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("negative world accepted: %v", err)
	}
}

func TestCancelOrPayloadKeepsData(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		c := p.World()
		r := c.Irecv(0, 1)
		if err := c.Send(0, 1, []byte("rescued")); err != nil {
			return err
		}
		// The request has completed with data: CancelOrPayload must hand
		// the payload back instead of dropping it.
		pl, ok := r.CancelOrPayload()
		if !ok || string(pl) != "rescued" {
			return fmt.Errorf("payload lost: %q ok=%v", pl, ok)
		}
		// A pending request is cancelled instead.
		r2 := c.Irecv(0, 2)
		if pl, ok := r2.CancelOrPayload(); ok || pl != nil {
			return fmt.Errorf("pending request should cancel, got %q", pl)
		}
		if _, err := r2.Wait(); !errors.Is(err, ErrCancelled) {
			return fmt.Errorf("want ErrCancelled, got %v", err)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestRankErrorFormatting(t *testing.T) {
	err := failStop(3)
	if !IsRankFailStop(err) || FailedRankOf(err) != 3 {
		t.Fatalf("failStop broken: %v", err)
	}
	if FailedRankOf(errors.New("other")) != -1 {
		t.Fatal("unrelated error should report -1")
	}
	var re *RankError
	if !errors.As(err, &re) || re.Error() == "" {
		t.Fatal("RankError unwrap broken")
	}
}

// TestFreedRequestComesBackClean frees requests retired both ways the
// ring retires them (consumed by Waitany, disposed of by CancelOrPayload)
// and checks that whatever the pool hands out next carries no stale
// completion state, and that the pool does hand the freed ones back.
func TestFreedRequestComesBackClean(t *testing.T) {
	const rounds = 50
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				if err := c.Send(1, 1, []byte("a")); err != nil {
					return err
				}
				if err := c.Send(1, 2, []byte("b")); err != nil {
					return err
				}
			}
			return nil
		}
		reused := 0
		for i := 0; i < rounds; i++ {
			a, b := c.Irecv(0, 1), c.Irecv(0, 2)
			if _, _, err := Waitany(a, b); err != nil {
				return err
			}
			a.CancelOrPayload()
			b.CancelOrPayload()
			a.Free()
			b.Free()
			for k := 0; k < 2; k++ {
				r := newRequest(p.eng, c, reqRecv)
				if r.done || r.consumed || r.waiters != nil || r.payload != nil || r.err != nil {
					return fmt.Errorf("round %d: pooled request is stale: %+v", i, r)
				}
				if r == a || r == b {
					reused++
				}
			}
		}
		if reused == 0 {
			return errors.New("the pool never handed back a freed request")
		}
		return nil
	})
	requireNoRankErrors(t, res)
}
