package transport_test

import (
	"testing"

	"repro/internal/aliastest"
	"repro/internal/transport"
)

// TestPooledReadsNeverAlias checks that no pooled buffer is handed out
// while someone still owns it. The frames case holds delivered TCP
// payloads before releasing them. The consumer cases run the engine's
// consumers of a read on Local and on TCP (aliastest.Consumers): the
// results of Recv, Sendrecv, Bcast and two Allreduces, one of whose Op
// returns the received operand, are kept to the end, and 10^3 ValidateAll
// instances must each agree.
func TestPooledReadsNeverAlias(t *testing.T) {
	t.Run("frames", transport.PooledFramesNeverAlias)
	consumers := func(fab transport.Fabric) func(*testing.T) {
		return func(t *testing.T) {
			if err := aliastest.Run(6, fab, aliastest.Consumers(200, 1000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("consumers/local", consumers(transport.NewLocal()))
	t.Run("consumers/tcp", consumers(transport.NewTCP(6)))
}
