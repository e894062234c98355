// Package aliastest drives every internal consumer of a received payload
// with distinct bytes, for the alias tests of the transport, mpi and core
// packages. Recv, Sendrecv and Bcast copy a pooled read out for their
// caller, a reduction folds it and hands it back, and an agreement frame
// is decoded and handed back. A kept result that still shares a buffer
// the pools hand out again, or a frame recycled before it is decoded,
// shows up as changed bytes or a wrong decision.
package aliastest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Run runs body on an n-rank world over fab, with errors returned, a
// one-minute deadline and the given layers on top, and reports the first
// failure of a rank or of the world. A rank whose body fails aborts the
// world, so that its peers do not wait for it until the deadline.
func Run(n int, fab transport.Fabric, body func(p *mpi.Proc) error, layers ...mpi.Option) error {
	w, err := mpi.NewWorld(n, append([]mpi.Option{mpi.WithFabric(fab), mpi.WithDeadline(time.Minute)}, layers...)...)
	if err != nil {
		return err
	}
	var (
		mu    sync.Mutex
		first error
	)
	res, err := w.Run(func(p *mpi.Proc) error {
		p.World().SetErrhandler(mpi.ErrorsReturn)
		if err := body(p); err != nil {
			mu.Lock()
			if first == nil {
				first = fmt.Errorf("rank %d: %w", p.Rank(), err)
			}
			mu.Unlock()
			p.Abort(1)
		}
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	if first != nil {
		return first
	}
	if err != nil {
		return err
	}
	if res.TimedOut || res.Aborted {
		return fmt.Errorf("world did not finish: timed out %v, stuck ranks %v, aborted %v", res.TimedOut, res.Stuck, res.Aborted)
	}
	return nil
}

// Message tags of a consumer round.
const (
	tagRecv = iota + 1
	tagSendrecv
)

// size is the payload size of a round: 24 to 223 bytes, a dozen size
// classes, and every eighth round 64 KiB.
func size(round int) int {
	if round%8 == 7 {
		return 64 << 10
	}
	return 24 + round*37%200
}

// pattern is rank's message of a round: its header names both, and every
// later byte is a function of the header and its offset.
func pattern(round, rank, n int) []byte {
	b := make([]byte, n)
	binary.LittleEndian.PutUint32(b, uint32(round))
	binary.LittleEndian.PutUint32(b[4:], uint32(rank))
	for j := 8; j < n; j++ {
		b[j] = byte(round*131 + rank*29 + j*7 + j>>8)
	}
	return b
}

// sender checks that pl is a whole message of round, and returns the rank
// that made it.
func sender(pl []byte, round int) (int, error) {
	if len(pl) != size(round) {
		return -1, fmt.Errorf("round %d: %d bytes, want %d", round, len(pl), size(round))
	}
	rank := int(binary.LittleEndian.Uint32(pl[4:]))
	if !bytes.Equal(pl, pattern(round, rank, len(pl))) {
		return -1, fmt.Errorf("round %d: not rank %d's message: %x...", round, rank, pl[:16])
	}
	return rank, nil
}

// vector is rank's Allreduce contribution of a round; sum is what the
// contributions of n ranks add up to.
func vector(round, rank int) []int64 {
	v := make([]int64, 2+round%13)
	for j := range v {
		v[j] = int64(round*1_000_003 + rank*7919 + j*31)
	}
	return v
}

func sum(round, n int) []int64 {
	v := vector(round, 0)
	for j := range v {
		v[j] = int64(n)*v[j] + int64(7919*n*(n-1)/2)
	}
	return v
}

// second is a user Op that returns its second operand: the received
// payload itself becomes the reduction's result.
func second(_, b []byte) []byte { return b }

// Consumers returns a rank function that runs rounds of Recv (from the
// left neighbour), Sendrecv (from the right), Bcast (from a root that
// moves every round), Allreduce with SumInt64, and Allreduce with an Op
// that returns its second operand. Every result is checked when it
// arrives and kept, with a copy, and every kept one is checked against
// its copy at the end, after later rounds have pushed their own messages
// through the same pools. Then it runs validates ValidateAll instances,
// each of which must agree that nobody failed.
func Consumers(rounds, validates int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.World()
		me, n := c.Rank(), c.Size()
		left, right := (me+n-1)%n, (me+1)%n
		type keptMsg struct {
			what       string
			round      int
			got, clone []byte
		}
		var kept []keptMsg
		keep := func(what string, round int, pl []byte) {
			kept = append(kept, keptMsg{what, round, pl, bytes.Clone(pl)})
		}
		from := func(what string, round int, pl []byte, want int) error {
			got, err := sender(pl, round)
			if err == nil && want >= 0 && got != want {
				err = fmt.Errorf("round %d: rank %d's message, want rank %d's", round, got, want)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			keep(what, round, pl)
			return nil
		}
		for r := 0; r < rounds; r++ {
			mine := pattern(r, me, size(r))
			if err := c.Send(right, tagRecv, mine); err != nil {
				return err
			}
			pl, _, err := c.Recv(left, tagRecv)
			if err != nil {
				return err
			}
			if err := from("Recv", r, pl, left); err != nil {
				return err
			}
			if pl, _, err = c.Sendrecv(left, tagSendrecv, mine, right, tagSendrecv); err != nil {
				return err
			}
			if err := from("Sendrecv", r, pl, right); err != nil {
				return err
			}
			root := r % n
			var buf []byte
			if me == root {
				buf = mine
			}
			if pl, err = collective.Bcast(c, root, buf); err != nil {
				return err
			}
			if err := from("Bcast", r, pl, root); err != nil {
				return err
			}
			if pl, err = collective.Allreduce(c, collective.EncodeInt64s(vector(r, me)), collective.SumInt64); err != nil {
				return err
			}
			if want := collective.EncodeInt64s(sum(r, n)); !bytes.Equal(pl, want) {
				return fmt.Errorf("Allreduce: round %d: %x, want %x", r, pl, want)
			}
			keep("Allreduce", r, pl)
			if pl, err = collective.Allreduce(c, mine, second); err != nil {
				return err
			}
			if err := from("Allreduce returning its second operand", r, pl, -1); err != nil {
				return err
			}
		}
		for i := 0; i < validates; i++ {
			if failed, err := c.ValidateAll(); err != nil || failed != 0 {
				return fmt.Errorf("ValidateAll %d: %d failed, %v", i, failed, err)
			}
		}
		for _, k := range kept {
			if !bytes.Equal(k.got, k.clone) {
				return fmt.Errorf("%s of round %d changed after it returned", k.what, k.round)
			}
		}
		return nil
	}
}
