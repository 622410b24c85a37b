package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"
)

// Generator limits. timeout is how long after it was sent a query may
// wait for its answer; later (or never) counts as lost. maxInFlight caps
// the queries sent and not yet answered or timed out: when a server stall
// fills the window, due queries wait in the generator, and their latency,
// timed from their due time, still shows the stall. The cap keeps what a
// stall piles up far below the default 208 KiB socket receive buffer (a
// small query takes about 832 bytes of it on loopback, so 64 take 53 KiB),
// so the kernel never drops a query for want of buffer. IDs wrap every
// 65536 queries, so an answer is matched to the newest query carrying its
// ID: with at most maxInFlight in flight that is always the one sent.
const (
	timeout     = time.Second
	maxInFlight = 64
	slotSize    = 256 // bytes kept per answer for checking after timing
	// recvBurst bounds the answers drained between send checks, so a
	// burst of answers never delays a due query by more than a few reads.
	recvBurst = 8
)

// udpConn is a non-blocking UDP socket connected to the server. The
// generator polls it from one goroutine: no netpoller, no allocation.
type udpConn struct{ fd int }

func dialUDP(port int) (*udpConn, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	c := &udpConn{fd: fd}
	// Large buffers so the generator itself never drops an answer; the
	// kernel clamps to net.core.rmem_max/wmem_max.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 8<<20)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 8<<20)
	lo := [4]byte{127, 0, 0, 1}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: lo}); err != nil {
		c.close()
		return nil, fmt.Errorf("bind: %w", err)
	}
	if err := syscall.Connect(fd, &syscall.SockaddrInet4{Port: port, Addr: lo}); err != nil {
		c.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return c, nil
}

func (c *udpConn) close() { _ = syscall.Close(c.fd) }

// drain discards anything queued on the socket.
func (c *udpConn) drain() {
	var b [slotSize]byte
	for {
		if _, err := syscall.Read(c.fd, b[:]); err != nil && !errors.Is(err, syscall.ECONNREFUSED) {
			return
		}
	}
}

// phaseResult is what the generator observed for one schedule.
type phaseResult struct {
	sched *schedule
	late  []int64 // ns each query was sent after its due time
	lat   []int64 // ns from due time to answer; -1 if lost or timed out
	resp  []byte  // answer i in resp[i*slotSize : i*slotSize+respLen[i]]
	rlen  []int16
	// busyNs is the time spent inside send and successful receive calls;
	// wallNs the phase length. Their ratio is the generator's CPU share.
	busyNs, wallNs int64
	// held marks the queries that fell due while maxInFlight queries were
	// in flight, and so were sent late by the server's doing; nHeld counts
	// them.
	held  []bool
	nHeld int
}

func (r *phaseResult) answer(i int) []byte {
	return r.resp[i*slotSize : i*slotSize+int(r.rlen[i])]
}

// runPhase sends the schedule open-loop, within the maxInFlight window,
// and records every answer. One goroutine busy-polls: it sends each query
// as soon as it is due and the window has room (no sleep, whose wake-up
// lateness on this class of host exceeds the server's own service time),
// and between sends drains up to recvBurst answers. The receive time is
// taken when the answer is read. The phase ends when every query is
// answered or timed out, and at the latest timeout after the last due
// time; a query not sent by then counts as lost.
func runPhase(c *udpConn, s *schedule, res *phaseResult) {
	n := len(s.due)
	res.sched = s
	res.late = growInt64(res.late, n)
	res.lat = growInt64(res.lat, n)
	res.rlen = growInt16(res.rlen, n)
	if cap(res.held) < n {
		res.held = make([]bool, n)
	}
	res.held = res.held[:n]
	if need := n * slotSize; cap(res.resp) < need {
		res.resp = make([]byte, need)
	} else {
		res.resp = res.resp[:need]
	}
	for i := range res.lat {
		res.lat[i] = -1
		res.rlen[i] = 0
		res.late[i] = 0
		res.held[i] = false
	}
	// Fault the answer slots in now rather than on first write mid-phase.
	for i := 0; i < len(res.resp); i += 4096 {
		res.resp[i] = 0
	}
	res.busyNs, res.nHeld = 0, 0
	var scratch [slotSize]byte
	// Queries below oldest are answered or timed out; inFlight counts the
	// sent ones at or above it that are neither.
	next, oldest, inFlight := 0, 0, 0
	heldTo := 0 // queries below heldTo are sent or marked held
	sentAt := func(i int) int64 { return s.due[i] + res.late[i] }
	var end int64
	if n > 0 {
		end = s.due[n-1] + int64(timeout)
	}
	base := time.Now()
	for {
		now := int64(time.Since(base))
		for ; oldest < next && (res.lat[oldest] >= 0 || now-sentAt(oldest) > int64(timeout)); oldest++ {
			if res.lat[oldest] < 0 {
				inFlight--
			}
		}
		for next < n && s.due[next] <= now {
			if inFlight == maxInFlight {
				for heldTo = max(heldTo, next); heldTo < n && s.due[heldTo] <= now; heldTo++ {
					res.held[heldTo] = true
					res.nHeld++
				}
				break
			}
			_, err := syscall.Write(c.fd, s.msg(next))
			t := int64(time.Since(base))
			res.busyNs += t - now
			if errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.ENOBUFS) {
				now = t
				break // the socket is full: retry on the next pass
			}
			// Any other failed send shows as a lost query.
			res.late[next] = now - s.due[next]
			now = t
			next++
			inFlight++
		}
		for k := 0; k < recvBurst; k++ {
			m, err := syscall.Read(c.fd, scratch[:])
			if err != nil || m < 2 {
				break
			}
			t := int64(time.Since(base))
			res.busyNs += t - now
			now = t
			if next == 0 {
				continue
			}
			id := int(scratch[0])<<8 | int(scratch[1])
			last := next - 1
			i := last - ((last - id) & 0xffff)
			if i < oldest || res.lat[i] >= 0 || now-sentAt(i) > int64(timeout) {
				continue // stray, duplicate or timed out
			}
			res.lat[i] = now - s.due[i]
			res.rlen[i] = int16(copy(res.resp[i*slotSize:(i+1)*slotSize], scratch[:m]))
			inFlight--
		}
		if (next == n && inFlight == 0) || now > end {
			for i := next; i < n; i++ {
				res.late[i] = now - s.due[i] // never sent
			}
			res.wallNs = now
			return
		}
	}
}

func growInt64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

func growInt16(b []int16, n int) []int16 {
	if cap(b) < n {
		return make([]int16, n)
	}
	return b[:n]
}
