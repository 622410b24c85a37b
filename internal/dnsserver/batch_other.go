//go:build !linux || (!amd64 && !arm64)

package dnsserver

import (
	"errors"
	"syscall"
)

// errNoBatchIO reports that batching is unavailable. Config validation in
// internal/config rejects batch_size > 1 off Linux before a server is
// built; this error covers direct API users with the same guidance.
var errNoBatchIO = errors.New("dnsserver: batched I/O (BatchSize > 1) requires linux on amd64 or arm64; set BatchSize to 1")

// slots is the portable stub: servers here never batch, so its methods
// are unreachable and exist only to satisfy the compiler.
type slots struct{}

func newSlots(k int) *slots { return &slots{} }

func (s *slots) recv(rc syscall.RawConn, bufs [][]byte, in []datagram) (int, error) { return 0, nil }

func (s *slots) send(rc syscall.RawConn, out []datagram) {}

// sockMeminfo reports that SO_MEMINFO is unavailable, so no receive-queue
// series are exported.
func sockMeminfo(rc syscall.RawConn) (bytes, drops uint64, ok bool) { return 0, 0, false }
