package detector

import (
	"testing"
	"time"
)

// fenceEnv is one Fencer (rank 0 of a 2-rank world unless a case says
// otherwise) on a ManualClock, with every outbound frame and hook call
// recorded. No monitor is involved: the cases below are the fencing
// protocol's contract, stated apart from the SWIM monitor that uses it.
type fenceEnv struct {
	clock  *ManualClock
	reg    *Registry
	f      *Fencer
	fences int // OpFence frames sent
	acks   int // OpFenceAck frames sent
	rtts   int // FenceRTT hook calls
	selfs  int // SelfFence hook calls
}

const (
	testResend    = 2 * time.Millisecond
	testSelfFence = 50 * time.Millisecond
)

func newFenceEnv(size int) *fenceEnv {
	e := &fenceEnv{clock: NewManualClock(time.Unix(1000, 0)), reg: New(size)}
	e.reg.SetConfirmGate(true)
	hooks := &FenceHooks{
		FenceRTT:  func(by, target int, rtt time.Duration) { e.rtts++ },
		SelfFence: func(rank int) { e.selfs++ },
	}
	e.f = NewFencer(e.reg, 0, size, testResend, testSelfFence,
		func(to int, op ControlOp, seq uint64, _ []byte) {
			switch op {
			case OpFence:
				e.fences++
			case OpFenceAck:
				e.acks++
			}
		}, hooks, nil)
	e.f.Acked(e.clock.Now())
	return e
}

// drive advances the clock by d and runs one Drive.
func (e *fenceEnv) drive(d time.Duration) bool {
	e.clock.Advance(d)
	return e.f.Drive(e.clock.Now())
}

func TestFencerContract(t *testing.T) {
	cases := []struct {
		name string
		size int
		run  func(t *testing.T, e *fenceEnv)
	}{
		{"unsent fence cancels on alive evidence", 2, func(t *testing.T, e *fenceEnv) {
			if !e.f.Arm(1, e.clock.Now()) || e.f.Arm(1, e.clock.Now()) {
				t.Fatal("Arm must report a new fence exactly once")
			}
			e.f.Alive(1, e.clock.Now())
			if e.f.Armed(1) {
				t.Fatal("alive evidence left an unsent fence armed")
			}
			e.drive(time.Millisecond)
			if e.fences != 0 || e.reg.Suspected(1) {
				t.Fatalf("cancelled fence still acted: fences=%d suspected=%v", e.fences, e.reg.Suspected(1))
			}
		}},
		{"sent fence drains and clears after one FenceResend", 2, func(t *testing.T, e *fenceEnv) {
			e.f.Arm(1, e.clock.Now())
			e.drive(0)
			if e.fences != 1 || !e.reg.Suspected(1) {
				t.Fatalf("first Drive: fences=%d suspected=%v", e.fences, e.reg.Suspected(1))
			}
			e.f.Alive(1, e.clock.Now())
			if !e.reg.Suspected(1) || !e.f.Armed(1) {
				t.Fatal("alive evidence cleared a suspicion whose fence is in flight")
			}
			e.drive(testResend / 2)
			if !e.reg.Suspected(1) {
				t.Fatal("drained fence cleared before the resend period lapsed")
			}
			e.drive(testResend / 2)
			if e.reg.Suspected(1) || e.f.Armed(1) {
				t.Fatal("lost fence never released the suspicion")
			}
			if e.fences != 1 {
				t.Fatalf("draining fence was resent: %d notices", e.fences)
			}
			if e.reg.FailedCount() != 0 || e.rtts != 0 {
				t.Fatalf("a cleared suspicion had effects: failed=%v rtts=%d", e.reg.Snapshot(), e.rtts)
			}
		}},
		{"undrained fence is resent every FenceResend", 2, func(t *testing.T, e *fenceEnv) {
			e.f.Arm(1, e.clock.Now())
			e.drive(0)
			e.drive(testResend / 2)
			if e.fences != 1 {
				t.Fatalf("resent early: %d notices", e.fences)
			}
			e.drive(testResend / 2)
			if e.fences != 2 {
				t.Fatalf("want a resend after one period, got %d notices", e.fences)
			}
		}},
		{"sent fence + ground-truth death confirms", 2, func(t *testing.T, e *fenceEnv) {
			e.f.Arm(1, e.clock.Now())
			e.drive(0)
			e.f.Alive(1, e.clock.Now()) // even a draining fence must confirm, not clear
			e.reg.Kill(1)
			e.drive(time.Millisecond)
			if !e.reg.Confirmed(1) || e.rtts != 1 || e.f.Armed(1) {
				t.Fatalf("confirmed=%v rtts=%d armed=%v", e.reg.Confirmed(1), e.rtts, e.f.Armed(1))
			}
		}},
		{"fence ack confirms", 2, func(t *testing.T, e *fenceEnv) {
			e.f.Arm(1, e.clock.Now())
			e.drive(0)
			e.reg.Kill(1) // die first...
			e.f.OnFenceAck(1, e.clock.Now())
			if !e.reg.Confirmed(1) || e.rtts != 1 {
				t.Fatalf("confirmed=%v rtts=%d", e.reg.Confirmed(1), e.rtts)
			}
			e.f.OnFenceAck(1, e.clock.Now()) // duplicate ack: no fence, dropped
			if e.rtts != 1 {
				t.Fatalf("duplicate ack recorded a second fence_rtt")
			}
		}},
		{"ack for a revived generation is dropped", 3, func(t *testing.T, e *fenceEnv) {
			e.f.Arm(1, e.clock.Now())
			e.drive(0)
			e.reg.Kill(1)
			e.reg.Confirm(1, 2) // another observer wins, the world respawns the slot
			e.reg.Revive(1)
			e.f.OnFenceAck(1, e.clock.Now()) // the delayed ack of generation 0
			if e.reg.Failed(1) || e.reg.Confirmed(1) {
				t.Fatal("a stale ack touched the reincarnation")
			}
			if e.rtts != 0 {
				t.Fatalf("an ack that confirmed nothing recorded %d fence_rtt samples", e.rtts)
			}
		}},
		{"fenced rank dies first, acks second", 2, func(t *testing.T, e *fenceEnv) {
			e.f.OnFence(1, 7)
			if !e.reg.Failed(0) || e.acks != 1 {
				t.Fatalf("failed=%v acks=%d", e.reg.Failed(0), e.acks)
			}
			e.f.OnFence(1, 8) // the dead NIC keeps answering
			if e.acks != 2 {
				t.Fatalf("dead rank stopped acking fences: %d", e.acks)
			}
		}},
		{"unacknowledged rank self-fences", 2, func(t *testing.T, e *fenceEnv) {
			if !e.drive(testSelfFence - time.Millisecond) {
				t.Fatal("self-fenced before the deadline")
			}
			e.f.Acked(e.clock.Now())
			if !e.drive(testSelfFence - time.Millisecond) {
				t.Fatal("an ack did not restart the deadline")
			}
			if e.drive(time.Millisecond) || !e.reg.Failed(0) || e.selfs != 1 {
				t.Fatalf("no self-fence at the deadline: failed=%v hook=%d", e.reg.Failed(0), e.selfs)
			}
		}},
		{"sole survivor never self-fences", 2, func(t *testing.T, e *fenceEnv) {
			e.reg.Kill(1)
			if !e.drive(10*testSelfFence) || e.reg.Failed(0) || e.selfs != 0 {
				t.Fatal("sole survivor fenced itself")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newFenceEnv(tc.size)) })
	}
}
