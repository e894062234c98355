package collective

import "repro/internal/mpi"

// Alternative collective algorithms. Real MPI implementations select
// among several algorithms per collective (the paper's Section II notes
// that re-enabling collectives after validate_all gives the library "an
// opportunity to re-optimize collective operations"); providing two
// broadcast and two allgather shapes lets the ablation benchmarks show
// why that matters: the binomial tree wins on latency, the chain on
// pipelining regularity, and Bruck on non-power-of-two counts.

// BcastChain broadcasts root's buffer along a linear chain (rank i
// forwards to i+1 in participant order, wrapping from the root). It has
// n-1 sequential hops — worse latency than the binomial tree but a
// strictly regular communication pattern, and under failure it orphans
// at most the suffix of the chain.
func BcastChain(c *mpi.Comm, root int, buf []byte) ([]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	rootIdx, err := r.indexOfComm(root)
	if err != nil {
		return nil, err
	}
	vrank := (r.me - rootIdx + r.n) % r.n
	data := buf
	if vrank != 0 {
		prev := (r.me - 1 + r.n) % r.n
		data, err = r.recv(c, prev)
		if err != nil {
			return nil, err
		}
	}
	if vrank != r.n-1 {
		next := (r.me + 1) % r.n
		if err := r.send(c, next, data); err != nil {
			return data, err
		}
	}
	return data, nil
}

// AllgatherBruck is the Bruck allgather: ceil(log2 n) rounds, each
// sending the blocks collected so far to (me - 2^k) and receiving from
// (me + 2^k). It beats the ring algorithm's n-1 rounds at larger n and
// handles non-power-of-two participant counts without a fold-in phase.
func AllgatherBruck(c *mpi.Comm, contrib []byte) ([][]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	// blocks[j] holds the contribution of participant (me+j) mod n.
	blocks := make([][]byte, r.n)
	blocks[0] = append([]byte(nil), contrib...)
	have := 1
	for dist := 1; have < r.n; dist *= 2 {
		sendCount := min(have, r.n-have)
		to := (r.me - dist + r.n) % r.n
		from := (r.me + dist) % r.n
		payload, err := encodeBlocks(blocks[:sendCount])
		if err != nil {
			return nil, err
		}
		pl, err := r.sendrecv(c, to, payload, from)
		if err != nil {
			return nil, err
		}
		got, err := decodeBlocks(pl)
		if err != nil {
			return nil, err
		}
		for j, blk := range got {
			if have+j < r.n {
				blocks[have+j] = blk
			}
		}
		have += len(got)
		if have > r.n {
			have = r.n
		}
	}
	// Rotate into participant order: out[i] = contribution of participant i.
	out := make([][]byte, r.n)
	for j := 0; j < r.n; j++ {
		out[(r.me+j)%r.n] = blocks[j]
	}
	return out, nil
}

// encodeBlocks frames a list of byte blocks (4-byte little-endian length
// prefixes), for the Bruck rounds that ship several blocks per message.
func encodeBlocks(blocks [][]byte) ([]byte, error) {
	total := 0
	for _, b := range blocks {
		total += 4 + len(b)
	}
	out := make([]byte, 0, total)
	for _, b := range blocks {
		n := len(b)
		out = append(out, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		out = append(out, b...)
	}
	return out, nil
}

func decodeBlocks(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, errTruncatedBlocks
		}
		n := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
		data = data[4:]
		if n < 0 || n > len(data) {
			return nil, errTruncatedBlocks
		}
		out = append(out, append([]byte(nil), data[:n]...))
		data = data[n:]
	}
	return out, nil
}

var errTruncatedBlocks = mpi.ErrInvalidArg
