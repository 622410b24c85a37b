//go:build linux && (amd64 || arm64)

// Raw Linux socket syscalls. Batched UDP I/O with recvmmsg/sendmmsg: one
// loop wakeup drains up to BatchSize datagrams and one flush sends up to
// BatchSize responses, amortising the dominant remaining per-query cost
// (syscall entry/exit) once the hot path itself is allocation-free. And
// the SO_MEMINFO read behind the per-shard receive-queue series.
//
// The batch syscalls run non-blocking (MSG_DONTWAIT) inside RawConn.Read/
// Write callbacks: returning false from the callback parks the goroutine
// on the runtime poller until the socket is ready again, which keeps
// deadline semantics intact — Server.Close's SetReadDeadline(now) still
// wakes a loop parked here, exactly as it wakes one parked in
// ReadFromUDPAddrPort.
//
// The stdlib syscall package predates these calls on some architectures,
// so the syscall numbers are pinned per-arch in batch_sysnum_*.go rather
// than taken from syscall.SYS_* (linux/amd64 exports SYS_RECVMMSG but not
// SYS_SENDMMSG).

package dnsserver

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// errNoBatchIO is nil: this platform has recvmmsg/sendmmsg.
var errNoBatchIO error

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the number of
// bytes the kernel transferred for that message. The trailing pad keeps
// the 8-byte alignment the kernel expects for arrays of these.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// slots is one serve loop's mmsghdr scatter/gather state: hdrs[i] points
// at names[i] (the peer sockaddr) and iovs[i] (one datagram buffer). A
// loop receives and then sends through the same slots, one after the
// other, so none of this needs locking.
type slots struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6 // large enough for both families
}

func newSlots(k int) *slots {
	s := &slots{
		hdrs:  make([]mmsghdr, k),
		iovs:  make([]syscall.Iovec, k),
		names: make([]syscall.RawSockaddrInet6, k),
	}
	for i := range s.hdrs {
		s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
	}
	return s
}

// recv drains up to len(s.hdrs) datagrams into bufs in one recvmmsg and
// describes each in in, in arrival order. It blocks (on the runtime
// poller, not in the syscall) until at least one datagram is available,
// the read deadline expires, or the socket closes. n == 0 with err == nil
// means a signal interrupted the call — the caller just retries.
func (s *slots) recv(rc syscall.RawConn, bufs [][]byte, in []datagram) (int, error) {
	for i := range s.hdrs {
		s.iovs[i].Base = &bufs[i][0]
		s.iovs[i].Len = uint64(len(bufs[i]))
		// The kernel overwrites these per call; reset so a short sockaddr
		// from the previous batch can't leak into this one.
		s.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(s.names[i]))
		s.hdrs[i].n = 0
	}
	var n int
	var errno syscall.Errno
	err := rc.Read(func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(len(s.hdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if e == syscall.EAGAIN {
			return false // park on the poller until readable
		}
		n, errno = int(r1), e
		return true
	})
	if err != nil {
		return 0, err // deadline exceeded or socket closed
	}
	if errno != 0 {
		if errno == syscall.EINTR {
			return 0, nil
		}
		return 0, errno
	}
	for i := 0; i < n; i++ {
		in[i] = datagram{bufs[i][:s.hdrs[i].n], decodeSockaddr(&s.names[i])}
	}
	return n, nil
}

// send flushes out with sendmmsg. A datagram the kernel rejects outright
// (unreachable peer, oversized) is skipped so the rest of the batch still
// goes out.
func (s *slots) send(rc syscall.RawConn, out []datagram) {
	k := len(out)
	for i, d := range out {
		s.iovs[i].Base = &d.b[0]
		s.iovs[i].Len = uint64(len(d.b))
		s.hdrs[i].hdr.Namelen = encodeSockaddr(&s.names[i], d.peer)
		s.hdrs[i].n = 0
	}
	off := 0
	// The error is the socket closing, which only Close does, after
	// every loop has returned.
	_ = rc.Write(func(fd uintptr) bool {
		for off < k {
			r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&s.hdrs[off])), uintptr(k-off),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch {
			case e == syscall.EAGAIN:
				return false // socket buffer full: wait for writability
			case e == syscall.EINTR:
				continue
			case e != 0 || int(r1) == 0:
				off++ // first datagram failed: skip it, keep the rest moving
			default:
				off += int(r1)
			}
		}
		return true
	})
}

// soMeminfo is SOL_SOCKET option SO_MEMINFO, which the stdlib syscall
// package does not export: 55 on every Linux ABI this file builds for.
// The kernel fills an array of skMeminfoVars uint32s, indexed by the
// SK_MEMINFO_* constants.
const (
	soMeminfo          = 55
	skMeminfoVars      = 9
	skMeminfoRmemAlloc = 0
	skMeminfoDrops     = 8
)

// sockMeminfo reads the socket's receive-queue bytes (SK_MEMINFO_RMEM_ALLOC)
// and its count of datagrams dropped on a full receive buffer
// (SK_MEMINFO_DROPS). It runs at scrape time, never on the serve path.
func sockMeminfo(rc syscall.RawConn) (bytes, drops uint64, ok bool) {
	var mem [skMeminfoVars]uint32
	size := uint32(unsafe.Sizeof(mem))
	var errno syscall.Errno
	err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd,
			syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&mem[0])), uintptr(unsafe.Pointer(&size)), 0)
	})
	if err != nil || errno != 0 {
		return 0, 0, false
	}
	return uint64(mem[skMeminfoRmemAlloc]), uint64(mem[skMeminfoDrops]), true
}

// decodeSockaddr converts a kernel-written sockaddr to a netip.AddrPort,
// preserving the address family the socket delivered (a dual-stack socket
// reports v4 peers as v4-in-v6, matching ReadFromUDPAddrPort).
func decodeSockaddr(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	if sa.Family == syscall.AF_INET {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), ntohs(sa4.Port))
	}
	return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), ntohs(sa.Port))
}

// encodeSockaddr fills sa for raddr and returns the sockaddr length,
// mirroring decodeSockaddr's family choice so replies go out on the same
// family the query arrived with.
func encodeSockaddr(sa *syscall.RawSockaddrInet6, raddr netip.AddrPort) uint32 {
	addr := raddr.Addr()
	if addr.Is4() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: htons(raddr.Port()), Addr: addr.As4()}
		return syscall.SizeofSockaddrInet4
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: htons(raddr.Port()), Addr: addr.As16()}
	return syscall.SizeofSockaddrInet6
}

// ntohs/htons convert the sockaddr port field, which is stored in network
// byte order regardless of host endianness. Reading byte-wise keeps this
// correct on any host.
func ntohs(p uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&p))
	return uint16(b[0])<<8 | uint16(b[1])
}

func htons(p uint16) uint16 {
	var out uint16
	b := (*[2]byte)(unsafe.Pointer(&out))
	b[0], b[1] = byte(p>>8), byte(p)
	return out
}
