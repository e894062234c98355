package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// runWorld executes fn on n ranks with ErrorsReturn pre-set on the world
// communicator and a safety deadline, failing the test on harness errors.
func runWorld(t *testing.T, n int, fn func(p *Proc) error) *RunResult {
	t.Helper()
	res, err := runWorldErr(t, n, fn)
	if err != nil {
		t.Fatalf("world run failed: %v\n", err)
	}
	return res
}

func runWorldErr(t *testing.T, n int, fn func(p *Proc) error) (*RunResult, error) {
	t.Helper()
	w, err := NewWorld(n, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w.Run(func(p *Proc) error {
		p.World().SetErrhandler(ErrorsReturn)
		return fn(p)
	})
}

// awaitKnownAlive is mpitest.AwaitKnownAlive, which this package's own
// tests cannot import (it imports mpi).
func awaitKnownAlive(p *Proc, alive int) { AwaitKnownFailed(p, p.Size()-alive) }

func requireNoRankErrors(t *testing.T, res *RunResult) {
	t.Helper()
	for rank, rr := range res.Ranks {
		if rr.Err != nil {
			t.Fatalf("rank %d returned error: %v", rank, rr.Err)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		switch p.Rank() {
		case 0:
			return c.Send(1, 7, []byte("hello"))
		case 1:
			pl, st, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(pl) != "hello" {
				return fmt.Errorf("payload %q", pl)
			}
			if st.Source != 0 || st.Tag != 7 || st.Len != 5 {
				return fmt.Errorf("status %+v", st)
			}
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestSendBuffersAreCopied(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			buf := []byte{1}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
			return nil
		}
		pl, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if pl[0] != 1 {
			return fmt.Errorf("send buffer was not copied: got %d", pl[0])
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestTagMatching(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			if err := c.Send(1, 1, []byte("a")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("b"))
		}
		// Receive tag 2 first even though tag 1 arrived first.
		pl2, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		pl1, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(pl1) != "a" || string(pl2) != "b" {
			return fmt.Errorf("got %q %q", pl1, pl2)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	const msgs = 100
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			pl, _, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if pl[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order: %d", i, pl[0])
			}
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestAnySourceAnyTag(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc) error {
		c := p.World()
		if p.Rank() != 0 {
			return c.Send(0, 10+p.Rank(), []byte{byte(p.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			pl, st, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(pl[0]) != st.Source || st.Tag != 10+st.Source {
				return fmt.Errorf("mismatched status %+v payload %v", st, pl)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("sources seen: %v", seen)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestProcNullSemantics(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		c := p.World()
		if err := c.Send(ProcNull, 0, []byte("x")); err != nil {
			return err
		}
		pl, st, err := c.Recv(ProcNull, 0)
		if err != nil {
			return err
		}
		if pl != nil || st.Source != ProcNull {
			return fmt.Errorf("null recv: payload=%v status=%+v", pl, st)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestSendToSelf(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		c := p.World()
		r := c.Irecv(0, 3)
		if err := c.Send(0, 3, []byte("self")); err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		if string(r.Payload()) != "self" {
			return fmt.Errorf("payload %q", r.Payload())
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestSendToFailedUnrecognizedFails(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			p.Die()
		}
		// Rank 0: wait until the failure notification lands, then send.
		for {
			info, err := c.RankState(1)
			if err != nil {
				return err
			}
			if info.State == RankFailed {
				break
			}
			time.Sleep(time.Millisecond)
		}
		err := c.Send(1, 0, []byte("x"))
		if !IsRankFailStop(err) {
			return fmt.Errorf("want ErrRankFailStop, got %v", err)
		}
		if FailedRankOf(err) != 1 {
			return fmt.Errorf("want failed rank 1, got %d", FailedRankOf(err))
		}
		return nil
	})
	if !res.Ranks[1].Killed {
		t.Fatalf("rank 1 should be killed: %+v", res.Ranks[1])
	}
	if res.Ranks[0].Err != nil {
		t.Fatalf("rank 0: %v", res.Ranks[0].Err)
	}
}

// TestPostedRecvFailsOnPeerDeath is the heart of the paper's Figure 9: an
// Irecv posted to a peer that never sends completes with an error when
// the peer dies, making MPI itself the failure detector.
func TestPostedRecvFailsOnPeerDeath(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			// Die only after rank 0 posted its receive, signalled via a message.
			if _, _, err := c.Recv(0, 1); err != nil {
				return err
			}
			p.Die()
		}
		det := c.Irecv(1, 9) // rank 1 will never send on tag 9
		if err := c.Send(1, 1, nil); err != nil {
			return err
		}
		_, err := det.Wait()
		if !IsRankFailStop(err) {
			return fmt.Errorf("detector should report fail-stop, got %v", err)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatalf("rank 0: %v", res.Ranks[0].Err)
	}
}

func TestAnySourceRecvFailsOnUnrecognizedFailure(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc) error {
		c := p.World()
		switch p.Rank() {
		case 2:
			p.Die()
		case 0:
			awaitKnownAlive(p, 2)
			_, _, err := c.Recv(AnySource, 0)
			if !IsRankFailStop(err) {
				return fmt.Errorf("any-source recv should fail, got %v", err)
			}
			// After recognizing, AnySource works again.
			if err := c.RecognizeLocal(2); err != nil {
				return err
			}
			pl, st, err := c.Recv(AnySource, 0)
			if err != nil {
				return err
			}
			if st.Source != 1 || string(pl) != "ok" {
				return fmt.Errorf("status %+v payload %q", st, pl)
			}
		case 1:
			return c.Send(0, 0, []byte("ok"))
		}
		return nil
	})
	if res.Ranks[0].Err != nil || res.Ranks[1].Err != nil {
		t.Fatalf("errors: %v / %v", res.Ranks[0].Err, res.Ranks[1].Err)
	}
}

func TestRecognizedRankHasProcNullSemantics(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			p.Die()
		}
		awaitKnownAlive(p, 1)
		if err := c.RecognizeLocal(1); err != nil {
			return err
		}
		if err := c.Send(1, 0, []byte("into the void")); err != nil {
			return err
		}
		pl, st, err := c.Recv(1, 0)
		if err != nil {
			return err
		}
		if st.Source != ProcNull || pl != nil {
			return fmt.Errorf("recognized recv: %+v %v", st, pl)
		}
		info, err := c.RankState(1)
		if err != nil {
			return err
		}
		if info.State != RankNull {
			return fmt.Errorf("state %v", info.State)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatalf("rank 0: %v", res.Ranks[0].Err)
	}
}

// TestEagerDeliveryOutlivesSender verifies the Figure 8 precondition:
// messages sent before the sender's death remain deliverable.
func TestEagerDeliveryOutlivesSender(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			if err := c.Send(0, 0, []byte("last words")); err != nil {
				return err
			}
			p.Die()
		}
		awaitKnownAlive(p, 1)
		// The sender is long dead, but its message must still match.
		pl, _, err := c.Recv(1, 0)
		if err != nil {
			return err
		}
		if string(pl) != "last words" {
			return fmt.Errorf("payload %q", pl)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatalf("rank 0: %v", res.Ranks[0].Err)
	}
}

func TestWaitanyPrefersCompletedAndConsumes(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			if err := c.Send(1, 1, []byte("one")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("two"))
		}
		r1 := c.Irecv(0, 1)
		r2 := c.Irecv(0, 2)
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			idx, _, err := Waitany(r1, r2)
			if err != nil {
				return err
			}
			if seen[idx] {
				return fmt.Errorf("Waitany returned index %d twice", idx)
			}
			seen[idx] = true
		}
		if _, _, err := Waitany(r1, r2); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("exhausted Waitany should error, got %v", err)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestCancelPendingRecv(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		c := p.World()
		r := c.Irecv(0, 42)
		r.Cancel()
		_, err := r.Wait()
		if !errors.Is(err, ErrCancelled) {
			return fmt.Errorf("want ErrCancelled, got %v", err)
		}
		r.Cancel() // idempotent
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestSendrecvExchange(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		peer := 1 - p.Rank()
		pl, st, err := c.Sendrecv(peer, 0, []byte{byte(p.Rank())}, peer, 0)
		if err != nil {
			return err
		}
		if st.Source != peer || int(pl[0]) != peer {
			return fmt.Errorf("exchange wrong: %+v %v", st, pl)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestIprobe(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			return c.Send(1, 6, []byte("probe me"))
		}
		for {
			ok, st, err := c.Iprobe(0, 6)
			if err != nil {
				return err
			}
			if ok {
				if st.Len != 8 || st.Source != 0 {
					return fmt.Errorf("probe status %+v", st)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
		_, _, err := c.Recv(0, 6)
		return err
	})
	requireNoRankErrors(t, res)
}

func TestAbortUnwindsEveryone(t *testing.T) {
	w, err := NewWorld(3, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 0 {
			p.Abort(42)
		}
		_, _, err := c.Recv(0, 0) // blocks forever; must be unwound by the abort
		return err
	})
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Code != 42 {
		t.Fatalf("want AbortError(42), got %v", err)
	}
	if !res.Aborted || res.AbortCode != 42 {
		t.Fatalf("result %+v", res)
	}
	for rank := 1; rank < 3; rank++ {
		if !res.Ranks[rank].Aborted {
			t.Fatalf("rank %d not marked aborted: %+v", rank, res.Ranks[rank])
		}
	}
}

func TestDeadlineReportsStuckRanks(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 0 {
			_, _, err := c.Recv(1, 0) // never sent: deadlock
			return err
		}
		return nil
	})
	if !errors.Is(err, ErrTimedOut) {
		t.Fatalf("want ErrTimedOut, got %v", err)
	}
	if !res.TimedOut || len(res.Stuck) != 1 || res.Stuck[0] != 0 {
		t.Fatalf("stuck ranks %v (timedout=%v)", res.Stuck, res.TimedOut)
	}
}

func TestErrorsAreFatalAborts(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Run(func(p *Proc) error {
		c := p.World() // default handler: ErrorsAreFatal
		if p.Rank() == 1 {
			p.Die()
		}
		awaitKnownAlive(p, 1)
		return c.Send(1, 0, nil) // must abort the world, not return
	})
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("fatal handler should abort, got %v", err)
	}
}

func TestHookKillAfterNthRecvIsDeterministic(t *testing.T) {
	var recvs int
	w, err := NewWorld(2,
		WithDeadline(30*time.Second),
		WithHook(func(ev HookEvent) Action {
			if ev.Rank == 1 && ev.Point == HookAfterRecv {
				recvs++
				if recvs == 3 {
					return ActKill
				}
			}
			return ActNone
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	res, _ := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				if err := c.Send(1, 0, []byte{byte(i)}); err != nil {
					return nil // peer died: expected
				}
				sent++
				// Ack keeps the two ranks in lockstep so the count is exact.
				if _, _, err := c.Recv(1, 1); err != nil {
					return nil
				}
			}
			return nil
		}
		for {
			if _, _, err := c.Recv(0, 0); err != nil {
				return err
			}
			if err := c.Send(0, 1, nil); err != nil {
				return err
			}
		}
	})
	if !res.Ranks[1].Killed {
		t.Fatalf("rank 1 should have been killed: %+v", res.Ranks[1])
	}
	if recvs != 3 {
		t.Fatalf("kill fired after %d receives, want exactly 3", recvs)
	}
}

func TestKillWakesBlockedRank(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		w.Kill(0)
	}()
	res, _ := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 0 {
			_, _, err := c.Recv(1, 0) // blocked until killed externally
			return err
		}
		awaitKnownAlive(p, 1)
		return nil
	})
	if !res.Ranks[0].Killed {
		t.Fatalf("rank 0 should be killed, got %+v", res.Ranks[0])
	}
	if res.Ranks[1].Err != nil {
		t.Fatalf("rank 1: %v", res.Ranks[1].Err)
	}
}
