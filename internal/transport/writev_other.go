//go:build !unix

package transport

import "net"

// vecWriter has no non-blocking gather write off unix: tryWrite takes
// nothing, so every frame goes through the connection's backlog and its
// flusher's blocking writes.
type vecWriter struct{}

func (v *vecWriter) init(*net.TCPConn) error { return nil }

func (v *vecWriter) tryWrite(hdr, payload []byte) (int, error) { return 0, nil }
