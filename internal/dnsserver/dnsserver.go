// Package dnsserver implements a UDP authoritative DNS server host: a
// serve loop over one or more UDP sockets that parses queries with dnsmsg,
// hands them to a Handler, and writes responses, with per-server metrics.
//
// It is the transport layer for the mapping system's authoritative name
// servers (§2.2 component 3): handlers implement the mapping behaviour,
// this package owns sockets, concurrency and message hygiene.
//
// The serve plane is built for the paper's query rates (§5: millions of
// queries per second platform-wide) and is sharded shared-nothing: the
// server runs N listener shards, each owning its own UDP socket (bound
// with SO_REUSEPORT on Linux so the kernel fans flows out across the
// sockets by 4-tuple hash) and response-rate-limiter table. Each shard
// runs identical run-to-completion loops over its socket: a loop reads a
// datagram, answers it inline and writes the answer before it reads
// again, so the kernel socket buffer is the only queue. No mutable state
// is shared between shards on the hot path — only the monotone aggregate
// counters in Metrics, which tolerate contention by construction. On
// Linux a loop can additionally drain and flush up to Config.BatchSize
// datagrams per syscall via recvmmsg/sendmmsg (see batch_linux.go), with
// a portable single-packet fallback everywhere else.
package dnsserver

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eum/internal/dnsmsg"
	"eum/internal/telemetry"
)

// Handler answers DNS queries. Implementations must be safe for concurrent
// use. Returning nil drops the query (no response), which a handler may use
// for malformed or abusive traffic.
//
// The query message is only valid for the duration of the call: the server
// recycles it once ServeDNS returns. Handlers that need query state beyond
// the call must copy it (the response returned may freely reference the
// query's strings, which are immutable).
type Handler interface {
	ServeDNS(remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	return f(remote, q)
}

// ShardAware is an optional Handler extension for handlers that keep
// per-shard state (the authority's per-shard answer caches, for one).
// When the handler passed to the server implements it, the serve loop
// calls ServeDNSShard with the listener shard the query arrived on
// instead of ServeDNS. Shard IDs are dense: 0 <= shard < Server.Shards().
type ShardAware interface {
	Handler
	ServeDNSShard(shard int, remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message
}

// shardHandler pins a ShardAware handler to one shard, so a shard's loops
// call one Handler whichever kind the server was given.
type shardHandler struct {
	h  ShardAware
	id int
}

func (h shardHandler) ServeDNS(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	return h.h.ServeDNSShard(h.id, remote, q)
}

// Metrics counts server activity, aggregated across all shards. All fields
// are updated atomically and may be read at any time. These counters are
// the one piece of cross-shard shared state: they are monotone counters
// whose cache-line contention cannot produce wrong answers, only a few
// nanoseconds of false sharing — per-shard operational state lives in
// ShardStats instead.
type Metrics struct {
	// Queries is the number of well-formed queries received.
	Queries atomic.Uint64
	// Responses is the number of responses written to the socket,
	// including the rare write the kernel refuses.
	Responses atomic.Uint64
	// Malformed is the number of datagrams that failed to parse.
	Malformed atomic.Uint64
	// Dropped is the number of queries the handler chose not to answer.
	Dropped atomic.Uint64
	// RateLimited is the number of queries suppressed by response-rate
	// limiting (see Config.RRLRate).
	RateLimited atomic.Uint64
	// Slips is the subset of RateLimited answered with a minimal TC=1
	// response so legitimate clients can retry over TCP.
	Slips atomic.Uint64
	// HandlerPanics is the number of handler panics recovered by the serve
	// loop (each answered with SERVFAIL).
	HandlerPanics atomic.Uint64
}

// ShardMetrics counts one shard's activity. Each shard updates only its
// own instance, so these atomics never bounce between cores.
type ShardMetrics struct {
	// Queries is the number of well-formed queries this shard received.
	Queries atomic.Uint64
	// Responses is the number of responses this shard wrote.
	Responses atomic.Uint64
	// RateLimited is the number of queries this shard's RRL suppressed.
	RateLimited atomic.Uint64
	// Wakeups counts receive syscall returns that delivered >= 1 packet.
	Wakeups atomic.Uint64
	// BatchedPackets counts packets delivered across those wakeups, so
	// BatchedPackets/Wakeups is the measured packets-per-syscall ratio
	// (1.0 on the portable single-packet path, up to BatchSize with
	// recvmmsg under load).
	BatchedPackets atomic.Uint64
}

// ShardStats is a point-in-time copy of one shard's counters.
type ShardStats struct {
	Shard          int
	Queries        uint64
	Responses      uint64
	RateLimited    uint64
	Wakeups        uint64
	BatchedPackets uint64
}

// maxAdvertisedUDPSize caps the EDNS UDP payload size the server honours.
// RFC 6891 §6.2.5 recommends 4096 octets as the upper bound of what is
// reliably deliverable; clients advertising more are clamped rather than
// trusted, bounding response buffers and fragmentation exposure.
const maxAdvertisedUDPSize = 4096

// maxPacketSize is the read buffer size: the largest UDP datagram.
const maxPacketSize = 65535

// maxBatchSize bounds Config.BatchSize: beyond 64 datagrams per syscall
// the syscall amortisation has flattened while the per-loop memory
// (BatchSize full-size read buffers) keeps growing.
const maxBatchSize = 64

// Config tunes the server. The zero value selects the defaults.
type Config struct {
	// ListenerShards is the number of shared-nothing listener shards.
	// ListenConfig binds each shard its own SO_REUSEPORT socket so the
	// kernel spreads flows across them. Default: GOMAXPROCS on Linux
	// (where SO_REUSEPORT exists), 1 elsewhere. Values > 1 require Linux
	// when sockets are bound by this package; NewConns accepts any number
	// of caller-supplied conns on any platform. Each shard runs
	// max(1, GOMAXPROCS/ListenerShards) serve loops over its socket.
	ListenerShards int
	// BatchSize is the number of datagrams a serve loop may drain or flush
	// per syscall using recvmmsg/sendmmsg. 1 (the default) selects the
	// portable single-packet path. Values > 1 require Linux on amd64 or
	// arm64 and a real UDP socket; injected non-UDP conns (faultnet
	// wrappers) silently fall back to the single-packet path.
	BatchSize int
	// RRLRate enables response-rate limiting when positive: each source
	// prefix (IPv4 /24, IPv6 /56) is allowed this many responses per
	// second, smoothed by a token-bucket (GCRA) with RRLBurst tolerance.
	// Rate-limited queries are dropped except every RRLSlip-th one, which
	// gets a minimal TC=1 response so legitimate clients behind the prefix
	// can fall back to TCP (the standard RRL "slip" escape hatch).
	// Each shard runs its own limiter table: the kernel pins a flow to one
	// shard, so a source prefix is still accounted coherently, and shards
	// never contend on limiter cache lines.
	RRLRate float64
	// RRLBurst is the burst allowance in responses. Default 8.
	RRLBurst int
	// RRLSlip answers every n-th rate-limited query with TC=1; 0 uses the
	// default of 2, negative disables slipping entirely.
	RRLSlip int
}

func (c Config) withDefaults() Config {
	if c.ListenerShards <= 0 {
		c.ListenerShards = defaultListenerShards()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.BatchSize > maxBatchSize {
		c.BatchSize = maxBatchSize
	}
	if c.RRLBurst <= 0 {
		c.RRLBurst = 8
	}
	if c.RRLSlip == 0 {
		c.RRLSlip = 2
	}
	return c
}

// datagram is one received query or one answer to send: its wire bytes
// and the peer it came from or goes to.
type datagram struct {
	b    []byte
	peer netip.AddrPort
}

// shard is one shared-nothing serving unit: a socket, its RRL table and
// its counters. Nothing in here is touched by any other shard.
type shard struct {
	id  int
	srv *Server
	// handler is the server's handler, pinned to this shard when it is
	// ShardAware.
	handler Handler

	conn net.PacketConn
	// udpConn is conn when it is a *net.UDPConn, enabling the
	// allocation-free ReadFromUDPAddrPort/WriteToUDPAddrPort pair, the
	// batched recvmmsg/sendmmsg path and the SO_MEMINFO scrape through rc.
	udpConn *net.UDPConn
	rc      syscall.RawConn
	// batched selects recvmmsg/sendmmsg for this shard's loops.
	batched bool

	// rrl is this shard's response-rate limiter, nil unless Config.RRLRate
	// is positive. Per shard by design: the kernel's REUSEPORT hash pins a
	// flow to one shard, so accounting stays coherent without sharing.
	rrl *rateLimiter

	// Stats counts this shard's activity.
	Stats ShardMetrics
}

// Server is a UDP DNS server over one or more listener shards.
type Server struct {
	cfg    Config
	shards []*shard
	// loops is the number of serve loops per shard.
	loops int
	// latency, when non-nil, records per-query handler latency. Set by
	// RegisterMetrics before Serve.
	latency *telemetry.Histogram

	// Metrics exposes live counters aggregated across shards.
	Metrics Metrics

	closed atomic.Bool
	wg     sync.WaitGroup // Serve, until every loop has drained
}

// Listen binds a UDP socket on addr (e.g. "127.0.0.1:0") and returns a
// server with the default configuration, ready to Serve. The handler must
// not be nil.
func Listen(addr string, h Handler) (*Server, error) {
	return ListenConfig(addr, h, Config{})
}

// ListenConfig is Listen with an explicit configuration. With
// ListenerShards > 1 it binds one SO_REUSEPORT socket per shard on the
// same address, so the kernel fans incoming flows out across the shards;
// that path requires Linux.
func ListenConfig(addr string, h Handler, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.ListenerShards == 1 {
		conn, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("dnsserver: %w", err)
		}
		s, err := newConns([]net.PacketConn{conn}, h, cfg)
		if err != nil {
			conn.Close()
			return nil, err
		}
		return s, nil
	}
	conns := make([]net.PacketConn, 0, cfg.ListenerShards)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < cfg.ListenerShards; i++ {
		conn, err := listenReusePort(addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("dnsserver: shard %d: %w", i, err)
		}
		if i == 0 {
			// Shard 0 may have resolved port 0 to a concrete port; the
			// remaining shards must bind that same port to join the
			// REUSEPORT group.
			addr = conn.LocalAddr().String()
		}
		conns = append(conns, conn)
	}
	s, err := newConns(conns, h, cfg)
	if err != nil {
		closeAll()
		return nil, err
	}
	return s, nil
}

// NewConn builds a single-shard server over an already-open packet
// connection — the entry point for tests that interpose a fault-injecting
// transport (see internal/faultnet) between the server and the wire. The
// server owns the connection from here on; Close closes it.
func NewConn(conn net.PacketConn, h Handler, cfg Config) (*Server, error) {
	if conn == nil {
		return nil, errors.New("dnsserver: nil conn")
	}
	cfg.ListenerShards = 1
	return newConns([]net.PacketConn{conn}, h, cfg.withDefaults())
}

// NewConns builds a server with one shard per supplied connection. Unlike
// the SO_REUSEPORT path the conns need not share an address: tests bind
// distinct loopback ports so individual shards stay addressable, and chaos
// harnesses wrap each conn in its own fault injector. The server owns the
// connections from here on; Close closes them all.
func NewConns(conns []net.PacketConn, h Handler, cfg Config) (*Server, error) {
	if len(conns) == 0 {
		return nil, errors.New("dnsserver: no conns")
	}
	for _, c := range conns {
		if c == nil {
			return nil, errors.New("dnsserver: nil conn")
		}
	}
	cfg.ListenerShards = len(conns)
	return newConns(conns, h, cfg.withDefaults())
}

// newConns wires the shards. cfg must already have defaults applied and
// cfg.ListenerShards == len(conns).
func newConns(conns []net.PacketConn, h Handler, cfg Config) (*Server, error) {
	if h == nil {
		return nil, errors.New("dnsserver: nil handler")
	}
	// Mapping decisions are CPU-bound, so the shards share GOMAXPROCS
	// loops between them.
	s := &Server{cfg: cfg, loops: max(1, runtime.GOMAXPROCS(0)/len(conns))}
	sharded, _ := h.(ShardAware)
	s.shards = make([]*shard, len(conns))
	for i, conn := range conns {
		sh := &shard{id: i, srv: s, handler: h, conn: conn}
		if sharded != nil {
			sh.handler = shardHandler{sharded, i}
		}
		sh.udpConn, _ = conn.(*net.UDPConn)
		if sh.udpConn != nil {
			rc, err := sh.udpConn.SyscallConn()
			if err != nil {
				return nil, fmt.Errorf("dnsserver: %w", err)
			}
			sh.rc = rc
			if cfg.BatchSize > 1 {
				if errNoBatchIO != nil {
					return nil, errNoBatchIO
				}
				sh.batched = true
			}
		}
		if cfg.RRLRate > 0 {
			sh.rrl = newRateLimiter(cfg.RRLRate, cfg.RRLBurst, cfg.RRLSlip)
		}
		s.shards[i] = sh
	}
	return s, nil
}

// Addr returns shard 0's bound address, for clients to dial. With
// SO_REUSEPORT sharding every shard shares this address.
func (s *Server) Addr() net.Addr { return s.shards[0].conn.LocalAddr() }

// Shards returns the number of listener shards.
func (s *Server) Shards() int { return len(s.shards) }

// ShardAddr returns the bound address of one shard — distinct per shard
// when the server was built with NewConns over separately-bound sockets.
func (s *Server) ShardAddr(i int) net.Addr { return s.shards[i].conn.LocalAddr() }

// ShardStats snapshots every shard's counters.
func (s *Server) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStats{
			Shard:          i,
			Queries:        sh.Stats.Queries.Load(),
			Responses:      sh.Stats.Responses.Load(),
			RateLimited:    sh.Stats.RateLimited.Load(),
			Wakeups:        sh.Stats.Wakeups.Load(),
			BatchedPackets: sh.Stats.BatchedPackets.Load(),
		}
	}
	return out
}

// Serve runs every shard's serve loops until the server is closed and
// every loop has answered what it read. Serve returns nil after Close.
func (s *Server) Serve() error {
	s.wg.Add(1)
	defer s.wg.Done()
	errs := make(chan error, len(s.shards)*s.loops)
	var loops sync.WaitGroup
	for _, sh := range s.shards {
		for i := 0; i < s.loops; i++ {
			loops.Add(1)
			go func() {
				defer loops.Done()
				errs <- sh.serve()
			}()
		}
	}
	loops.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serve is one run-to-completion serve loop over the shard's socket: it
// reads a datagram (batched: up to BatchSize of them in one recvmmsg),
// answers each inline, and writes the answers (batched: in one sendmmsg)
// before it reads again. The loop owns its read buffers, its query
// message and its pack buffers, so nothing is pooled or handed between
// goroutines. It returns nil once Close has woken it.
func (sh *shard) serve() error {
	k := 1
	var mm *slots
	if sh.batched {
		k = sh.srv.cfg.BatchSize
		mm = newSlots(k)
	}
	bufs := make([][]byte, k)
	out := make([]datagram, k)
	for i := range bufs {
		bufs[i] = make([]byte, maxPacketSize)
		out[i].b = make([]byte, 0, maxAdvertisedUDPSize)
	}
	in := make([]datagram, k)
	var query dnsmsg.Message
	for {
		n, err := sh.recv(mm, bufs, in)
		if err != nil {
			if sh.srv.closed.Load() {
				return nil
			}
			return fmt.Errorf("dnsserver: read: %w", err)
		}
		if n == 0 {
			continue
		}
		sh.Stats.Wakeups.Add(1)
		sh.Stats.BatchedPackets.Add(uint64(n))
		m := 0
		for _, d := range in[:n] {
			if wire, ok := sh.answer(&query, d, out[m].b[:0]); ok {
				out[m] = datagram{wire, d.peer} // keeps any growth for reuse
				m++
			}
		}
		// Counted before the write, so a client holding an answer never
		// reads a counter that has not counted it yet.
		sh.srv.Metrics.Responses.Add(uint64(m))
		sh.Stats.Responses.Add(uint64(m))
		sh.send(mm, out[:m])
	}
}

// recv fills in with the next datagrams off the socket, one per call
// unless mm selects recvmmsg. n == 0 with a nil error means nothing
// usable arrived (a signal, or a peer address that did not parse).
func (sh *shard) recv(mm *slots, bufs [][]byte, in []datagram) (int, error) {
	if mm != nil {
		return mm.recv(sh.rc, bufs, in)
	}
	n, peer, err := sh.readFrom(bufs[0])
	if err != nil || !peer.IsValid() {
		return 0, err
	}
	in[0] = datagram{bufs[0][:n], peer}
	return 1, nil
}

// send writes the answers, in one sendmmsg when mm is set. A write the
// kernel refuses loses that answer only, as a lossy path would: the
// client retries.
func (sh *shard) send(mm *slots, out []datagram) {
	if mm != nil {
		mm.send(sh.rc, out)
		return
	}
	for _, d := range out {
		if sh.udpConn != nil {
			_, _ = sh.udpConn.WriteToUDPAddrPort(d.b, d.peer)
		} else {
			_, _ = sh.conn.WriteTo(d.b, net.UDPAddrFromAddrPort(d.peer))
		}
	}
}

// readFrom reads one datagram, preferring the AddrPort-returning UDP path
// that avoids a net.Addr allocation per packet (send does the same for
// writes).
func (sh *shard) readFrom(buf []byte) (int, netip.AddrPort, error) {
	if sh.udpConn != nil {
		return sh.udpConn.ReadFromUDPAddrPort(buf)
	}
	n, remote, err := sh.conn.ReadFrom(buf)
	if err != nil {
		return 0, netip.AddrPort{}, err
	}
	raddr, _ := remoteAddrPort(remote)
	return n, raddr, nil
}

// rcvQueue reads the shard socket's receive-queue bytes and the count of
// datagrams the kernel dropped because that queue was full (SO_MEMINFO).
// ok is false off Linux and for injected non-UDP conns.
func (sh *shard) rcvQueue() (bytes, drops uint64, ok bool) {
	if sh.rc == nil {
		return 0, 0, false
	}
	return sockMeminfo(sh.rc)
}

// answer serves one query datagram: unpack into q, response-rate limit,
// the handler under panic recovery, then the answer packed into wire
// (empty, reused) within the client's UDP payload size. ok is false when
// nothing goes back: a malformed datagram, a limited query that does not
// slip, or a query the handler drops.
func (sh *shard) answer(q *dnsmsg.Message, d datagram, wire []byte) ([]byte, bool) {
	s := sh.srv
	if err := dnsmsg.UnpackInto(q, d.b); err != nil || q.Response {
		s.Metrics.Malformed.Add(1)
		return nil, false
	}
	s.Metrics.Queries.Add(1)
	sh.Stats.Queries.Add(1)
	if sh.rrl != nil && !sh.rrl.allow(d.peer.Addr(), time.Now().UnixNano()) {
		s.Metrics.RateLimited.Add(1)
		sh.Stats.RateLimited.Add(1)
		if !sh.rrl.shouldSlip() {
			return nil, false
		}
		// Slip: a minimal TC=1 response with no records steers a
		// legitimate client behind the limited prefix to retry over TCP,
		// where the handshake verifies its source address.
		s.Metrics.Slips.Add(1)
		slip := q.Reply()
		slip.Truncated = true
		wire, err := slip.AppendPack(wire)
		return wire, err == nil
	}
	var startNs int64
	if s.latency != nil {
		startNs = time.Now().UnixNano()
	}
	resp := safeServe(sh.handler, &s.Metrics, d.peer, q)
	if s.latency != nil {
		s.latency.ObserveNanos(time.Now().UnixNano() - startNs)
	}
	if resp == nil {
		s.Metrics.Dropped.Add(1)
		return nil, false
	}
	// Respect the client's advertised UDP payload size (512 octets for
	// non-EDNS queries, RFC 1035), clamped to maxAdvertisedUDPSize per
	// RFC 6891 §6.2.5 rather than trusting arbitrary advertised sizes:
	// oversized answers are truncated with TC=1 so the client retries
	// over TCP.
	maxSize := 512
	if q.EDNS {
		maxSize = min(max(int(q.UDPSize), 512), maxAdvertisedUDPSize)
	}
	out, err := TruncateAppend(wire, resp, maxSize)
	if err != nil {
		// A handler bug; answer SERVFAIL so the client doesn't hang.
		servfail := q.Reply()
		servfail.RCode = dnsmsg.RCodeServerFailure
		if out, err = servfail.AppendPack(wire); err != nil {
			s.Metrics.Dropped.Add(1)
			return nil, false
		}
	}
	return out, true
}

// safeServe invokes the handler, converting a panic into a SERVFAIL
// response: one misbehaving query must not take down the serve loop. The
// UDP shards and the TCP server both serve through it.
func safeServe(h Handler, m *Metrics, raddr netip.AddrPort, query *dnsmsg.Message) (resp *dnsmsg.Message) {
	defer func() {
		if p := recover(); p != nil {
			m.HandlerPanics.Add(1)
			r := query.Reply()
			r.RCode = dnsmsg.RCodeServerFailure
			resp = r
		}
	}()
	return h.ServeDNS(raddr, query)
}

// Close shuts the server down gracefully: every loop is woken and stops
// reading, the datagrams loops have already read are answered (their
// responses still go out), and only then are the sockets closed. Late
// datagrams still queued in the kernel buffers die with the sockets.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// A read deadline in the past wakes every loop blocked on its socket
	// — including loops parked in recvmmsg via RawConn.Read, which
	// honours deadlines — without tearing down the socket, so loops can
	// still write responses for queries already read.
	for _, sh := range s.shards {
		_ = sh.conn.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func remoteAddrPort(a net.Addr) (netip.AddrPort, bool) {
	if u, ok := a.(*net.UDPAddr); ok {
		return u.AddrPort(), true
	}
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		return netip.AddrPort{}, false
	}
	return ap, true
}
