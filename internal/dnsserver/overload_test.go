package dnsserver

import (
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"eum/internal/dnsmsg"
	"eum/internal/telemetry"
)

// gatedHandler blocks every query on release, so tests can pin serve
// loops and fill the socket buffer deterministically.
type gatedHandler struct {
	release chan struct{}
}

func (h *gatedHandler) ServeDNS(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	<-h.release
	return q.Reply()
}

// startConfigServer is startServer with an explicit Config.
func startConfigServer(t *testing.T, h Handler, cfg Config) *Server {
	t.Helper()
	s, err := ListenConfig("127.0.0.1:0", h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRcvQueueAccountsEveryDatagram: the kernel socket buffer is the
// serve loops' only queue, so every datagram sent is either served or
// counted by the shard's rcvbuf_drops series — exactly. A gated handler
// holds every loop of the shard while 2000 queries overflow a small
// receive buffer; released, the loops drain the buffer (rcvq_bytes back
// to 0) before Close.
func TestRcvQueueAccountsEveryDatagram(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the receive-queue series read SO_MEMINFO, which is linux-only")
	}
	const queries = 2000
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Small enough to overflow within 2000 queries whatever the host's
	// default buffer size.
	if err := pc.SetReadBuffer(32 << 10); err != nil {
		t.Fatal(err)
	}
	h := &gatedHandler{release: make(chan struct{})}
	s, err := NewConn(pc, h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	go func() { _ = s.Serve() }()
	defer s.Close()
	release := sync.OnceFunc(func() { close(h.release) })
	defer release() // before Close, which waits for the held loops

	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, _ := dnsmsg.NewQuery(7, "queue.example.net", dnsmsg.TypeA).Pack()
	for i := 0; i < queries; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every loop to hold a query", func() bool {
		return s.Metrics.Queries.Load() == uint64(s.loops)
	})
	drops := func() uint64 { return reg.Snapshot().Counters["dnsserver_shard0_rcvbuf_drops_total"] }
	queued := func() float64 { return reg.Snapshot().Gauges["dnsserver_shard0_rcvq_bytes"] }
	if drops() == 0 || queued() == 0 {
		t.Fatalf("held loops left drops=%d queued=%.0f bytes, want both > 0", drops(), queued())
	}

	release()
	waitUntil(t, "the receive queue to drain", func() bool { return queued() == 0 })
	dropped := drops()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics.Queries.Load() + dropped; got != queries {
		t.Errorf("queries %d + rcvbuf drops %d = %d, want exactly %d",
			s.Metrics.Queries.Load(), dropped, got, queries)
	}
}

func TestHandlerPanicAnsweredServfail(t *testing.T) {
	first := true
	h := HandlerFunc(func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		if first {
			first = false
			panic("handler bug")
		}
		return q.Reply()
	})
	s := startConfigServer(t, h, Config{})

	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ask := func(id uint16) *dnsmsg.Message {
		t.Helper()
		wire, _ := dnsmsg.NewQuery(id, "panic.example.net", dnsmsg.TypeA).Pack()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 512)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("query %d: no response: %v", id, err)
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := ask(1); resp.RCode != dnsmsg.RCodeServerFailure {
		t.Fatalf("panicking query: rcode = %v, want SERVFAIL", resp.RCode)
	}
	if resp := ask(2); resp.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("query after panic: rcode = %v (serve loop wedged?)", resp.RCode)
	}
	if got := s.Metrics.HandlerPanics.Load(); got != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", got)
	}
}

func TestHandlerPanicTCP(t *testing.T) {
	h := HandlerFunc(func(netip.AddrPort, *dnsmsg.Message) *dnsmsg.Message {
		panic("tcp handler bug")
	})
	s, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, _ := dnsmsg.NewQuery(3, "panic.example.net", dnsmsg.TypeA).Pack()
	if err := WriteTCPMessage(conn, wire); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadTCPMessage(conn)
	if err != nil {
		t.Fatalf("no response after handler panic: %v", err)
	}
	resp, err := dnsmsg.Unpack(msg)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnsmsg.RCodeServerFailure {
		t.Fatalf("rcode = %v, want SERVFAIL", resp.RCode)
	}
	if got := s.Metrics.HandlerPanics.Load(); got != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", got)
	}
}
