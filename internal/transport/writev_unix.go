//go:build unix

package transport

import (
	"net"
	"syscall"
	"unsafe"
)

// vecWriter makes TCP.Send's non-blocking gather write: the frame header
// and the caller's payload go to the socket in one writev, with no copy in
// user space. It is used under its connection's mutex only.
type vecWriter struct {
	raw   syscall.RawConn
	write func(fd uintptr) bool // raw.Write's callback, bound once: a per-call closure allocates
	iov   [2]syscall.Iovec
	niov  int
	n     int
	errno syscall.Errno
}

func (v *vecWriter) init(c *net.TCPConn) error {
	raw, err := c.SyscallConn()
	if err != nil {
		return err
	}
	v.raw = raw
	v.write = v.writev
	return nil
}

// tryWrite writes as much of hdr followed by payload as the socket takes
// now, without waiting, and returns how many bytes that was. A full
// socket is not an error: it takes 0 bytes.
func (v *vecWriter) tryWrite(hdr, payload []byte) (int, error) {
	v.iov[0].Base = &hdr[0]
	v.iov[0].SetLen(len(hdr))
	v.niov = 1
	if len(payload) > 0 {
		v.iov[1].Base = &payload[0]
		v.iov[1].SetLen(len(payload))
		v.niov = 2
	}
	err := v.raw.Write(v.write)
	v.iov = [2]syscall.Iovec{} // keep no reference to the caller's payload
	switch {
	case err != nil:
		return 0, err
	case v.errno == 0:
		return v.n, nil
	case v.errno == syscall.EAGAIN:
		return 0, nil
	}
	return 0, v.errno
}

// writev is the RawConn.Write callback. It reports done whatever the
// outcome: waiting for the socket to drain is the flusher's job.
func (v *vecWriter) writev(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&v.iov[0])), uintptr(v.niov))
		if errno != syscall.EINTR {
			v.n, v.errno = int(n), errno
			return true
		}
	}
}
