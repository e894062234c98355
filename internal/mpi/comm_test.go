package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestDupIsolatesContexts(t *testing.T) {
	res := runWorld(t, 2, func(p *Proc) error {
		world := p.World()
		dup := world.Dup()
		dup.SetErrhandler(ErrorsReturn)
		if p.Rank() == 0 {
			// Same tag, two communicators: messages must not cross.
			if err := world.Send(1, 5, []byte("world")); err != nil {
				return err
			}
			return dup.Send(1, 5, []byte("dup"))
		}
		// Receive on the dup first: it must get the dup message even
		// though the world message arrived earlier.
		plDup, _, err := dup.Recv(0, 5)
		if err != nil {
			return err
		}
		plWorld, _, err := world.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(plDup) != "dup" || string(plWorld) != "world" {
			return fmt.Errorf("contexts crossed: %q %q", plDup, plWorld)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestDupSeparateRecognition(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc) error {
		world := p.World()
		dup := world.Dup()
		dup.SetErrhandler(ErrorsReturn)
		if p.Rank() == 2 {
			p.Die()
		}
		awaitKnownAlive(p, 2)
		if p.Rank() != 0 {
			return nil
		}
		// Recognize on the dup only: the world communicator must still
		// see the failure as unrecognized (per-communicator recognition).
		if err := dup.RecognizeLocal(2); err != nil {
			return err
		}
		di, err := dup.RankState(2)
		if err != nil {
			return err
		}
		wi, err := world.RankState(2)
		if err != nil {
			return err
		}
		if di.State != RankNull || wi.State != RankFailed {
			return fmt.Errorf("recognition leaked across communicators: dup=%v world=%v",
				di.State, wi.State)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatal(res.Ranks[0].Err)
	}
}

func TestSplitByParity(t *testing.T) {
	res := runWorld(t, 6, func(p *Proc) error {
		world := p.World()
		sub, err := world.Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		sub.SetErrhandler(ErrorsReturn)
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		wantRank := p.Rank() / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("sub rank %d want %d", sub.Rank(), wantRank)
		}
		// Ring within the sub-communicator.
		right := (sub.Rank() + 1) % sub.Size()
		left := (sub.Rank() - 1 + sub.Size()) % sub.Size()
		r := sub.Irecv(left, 1)
		if err := sub.Send(right, 1, []byte{byte(p.Rank())}); err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		gotFrom := int(r.Payload()[0])
		wantFrom, _ := sub.WorldRank(left)
		if gotFrom != wantFrom {
			return fmt.Errorf("got message from world rank %d, want %d", gotFrom, wantFrom)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestSplitKeyOrdering(t *testing.T) {
	res := runWorld(t, 4, func(p *Proc) error {
		// Reverse the ranks via descending keys.
		sub, err := p.World().Split(0, -p.Rank())
		if err != nil {
			return err
		}
		want := 3 - p.Rank()
		if sub.Rank() != want {
			return fmt.Errorf("sub rank %d want %d", sub.Rank(), want)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestSplitRejectsBadColor(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		if _, err := p.World().Split(-1, 0); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("negative color accepted: %v", err)
		}
		if _, err := p.World().Split(5000, 0); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("huge color accepted: %v", err)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestValidateAllOnSubCommunicator(t *testing.T) {
	res := runWorld(t, 6, func(p *Proc) error {
		sub, err := p.World().Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		sub.SetErrhandler(ErrorsReturn)
		// Rank 4 (even group, sub rank 2) dies after the split.
		if p.Rank() == 4 {
			p.Die()
		}
		awaitKnownAlive(p, 5)
		cnt, err := sub.ValidateAll()
		if err != nil {
			return err
		}
		want := 0
		if p.Rank()%2 == 0 {
			want = 1 // the dead rank is in the even sub-communicator
		}
		if cnt != want {
			return fmt.Errorf("sub validate count %d want %d", cnt, want)
		}
		return nil
	})
	for rank, rr := range res.Ranks {
		if rank != 4 && rr.Err != nil {
			t.Fatalf("rank %d: %v", rank, rr.Err)
		}
	}
}

func TestGroupAndTranslation(t *testing.T) {
	res := runWorld(t, 4, func(p *Proc) error {
		c := p.World()
		g := c.Group()
		if len(g) != 4 {
			return fmt.Errorf("group %v", g)
		}
		for i, wr := range g {
			if wr != i {
				return fmt.Errorf("world group should be identity: %v", g)
			}
		}
		if _, err := c.WorldRank(9); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("out-of-range comm rank accepted")
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestGoRequestCompletes(t *testing.T) {
	res := runWorld(t, 1, func(p *Proc) error {
		r := p.World().GoRequest(func() (Status, error) {
			return Status{Len: 42}, nil
		})
		st, err := r.Wait()
		if err != nil || st.Len != 42 {
			return fmt.Errorf("go request: %+v %v", st, err)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestErrhandlerStrings(t *testing.T) {
	if ErrorsAreFatal.String() != "MPI_ERRORS_ARE_FATAL" || ErrorsReturn.String() != "MPI_ERRORS_RETURN" {
		t.Fatal("errhandler names changed")
	}
	if RankOK.String() != "MPI_RANK_OK" || RankFailed.String() != "MPI_RANK_FAILED" || RankNull.String() != "MPI_RANK_NULL" {
		t.Fatal("rank state names changed")
	}
}
