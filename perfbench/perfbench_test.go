package main

import (
	"bytes"
	"math"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"eum/internal/dnsmsg"
	"eum/internal/world"
)

func testInputs(t *testing.T) *inputs {
	t.Helper()
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 400})
	wl := workloads["wide"] // uniform blocks, all three ECS kinds
	return newInputs(wl, w)
}

func TestScheduleDeterministic(t *testing.T) {
	in := testInputs(t)
	a, err := in.newSchedule(7, "heavy", 2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.newSchedule(7, "heavy", 2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.due) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a.due, b.due) || !reflect.DeepEqual(a.queries, b.queries) || !bytes.Equal(a.wire, b.wire) {
		t.Fatal("same seed and stream gave different schedules")
	}
	c, err := in.newSchedule(8, "heavy", 2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.due, c.due) || reflect.DeepEqual(a.queries, c.queries) {
		t.Fatal("another seed gave the same schedule")
	}
	kinds := map[uint8]int{}
	for i, q := range a.queries {
		kinds[q.kind]++
		m, err := dnsmsg.Unpack(a.msg(i))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if m.ID != uint16(i) || m.Questions[0].Name != in.domains[q.domain] {
			t.Fatalf("query %d packed as id %d %s", i, m.ID, m.Questions[0].Name)
		}
		if got, want := ecsOf(m), in.ecsPrefix(q); got != want {
			t.Fatalf("query %d carries ECS %v, want %v", i, got, want)
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("ECS kinds drawn: %v, want all three", kinds)
	}
}

// The public-resolver mix follows the world's provider shares by the
// prefix each forwards: full /24 from two providers, /20 and none from one
// each.
func TestProviderMix(t *testing.T) {
	got := providerMix(world.ModernProviders())
	want := [3]float64{0.62, 0.20, 0.18}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("providerMix = %v, want %v", got, want)
		}
	}
}

func ecsOf(m *dnsmsg.Message) netip.Prefix {
	if e := m.ClientSubnet(); e != nil {
		return e.Prefix()
	}
	return netip.Prefix{}
}

func TestQuantileAndWindows(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Two windows: the first has one loss among 4, the second none.
	ms := int64(1e6)
	due := []int64{0, 50 * ms, 100 * ms, 150 * ms, 250 * ms, 300 * ms}
	lat := []int64{10e3, 20e3, -1, 40e3, 5e3, 15e3}
	failed := []bool{false, false, true, false, false, false}
	ws := windows(due, lat, failed)
	if len(ws) != 2 || ws[0].sent != 4 || ws[0].failed != 1 || ws[1].sent != 2 || ws[1].failed != 0 {
		t.Fatalf("windows = %+v", ws)
	}
	if ws[0].p99 != float64(timeout)/1e3 || ws[0].p50 != 20 || ws[1].p50 != 5 {
		t.Fatalf("window percentiles = %+v (a loss counts at the timeout)", ws)
	}
}

func TestFailRatio(t *testing.T) {
	r := &result{Attempted: 2000, Failed: 3}
	if got := r.failRatio(); got != 0.0015 {
		t.Fatalf("fail ratio %v, want 0.0015", got)
	}
	if got := (&result{}).failRatio(); got != 0 {
		t.Fatalf("fail ratio of nothing attempted = %v", got)
	}
	p := &phaseStats{sent: 1000, lost: 2, wrong: 1}
	if p.failed() != 3 {
		t.Fatalf("phase failures %d, want lost+wrong = 3", p.failed())
	}
}

// answer packs a response to query q carrying servers and, when the
// query had ECS, the option echoed with the given scope.
func answer(t *testing.T, q *dnsmsg.Message, servers []netip.Addr, scope uint8) []byte {
	t.Helper()
	r := q.Reply()
	for _, a := range servers {
		r.Answers = append(r.Answers, dnsmsg.RR{Name: q.Questions[0].Name, Class: dnsmsg.ClassINET, TTL: 20, Data: &dnsmsg.A{Addr: a}})
	}
	if e := q.ClientSubnet(); e != nil {
		r.Options = append(r.Options, &dnsmsg.ClientSubnet{Family: e.Family, SourcePrefix: e.SourcePrefix, ScopePrefix: scope, Address: e.Address})
	}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestCheckAnswer(t *testing.T) {
	name := dnsmsg.Name("c3." + zone)
	servers := []netip.Addr{netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.1.0.2")}
	other := []netip.Addr{netip.MustParseAddr("10.9.0.1"), netip.MustParseAddr("10.9.0.2")}
	for _, bits := range []uint8{24, 20} {
		q := dnsmsg.NewQuery(42, name, dnsmsg.TypeA)
		if err := q.SetClientSubnet(netip.MustParseAddr("1.2.3.0"), bits); err != nil {
			t.Fatal(err)
		}
		e := expectation{id: 42, name: name, ecs: q.ClientSubnet().Prefix(), servers: servers}
		if err := checkAnswer(answer(t, q, servers, bits), e); err != nil {
			t.Fatalf("/%d: correct answer rejected: %v", bits, err)
		}
		if err := checkAnswer(answer(t, q, servers, 0), e); err == nil || !strings.Contains(err.Error(), "scope") {
			t.Fatalf("/%d: scope-0 answer accepted (err %v)", bits, err)
		}
		if err := checkAnswer(answer(t, q, servers, 16), e); err == nil {
			t.Fatalf("/%d: /16-scoped answer accepted", bits)
		}
		if err := checkAnswer(answer(t, q, other, bits), e); err == nil || !strings.Contains(err.Error(), "reference") {
			t.Fatalf("/%d: another deployment's servers accepted (err %v)", bits, err)
		}
		e.id = 43
		if err := checkAnswer(answer(t, q, servers, bits), e); err == nil {
			t.Fatalf("/%d: wrong ID accepted", bits)
		}
	}
	// No ECS in the query: no option may come back.
	q := dnsmsg.NewQuery(7, name, dnsmsg.TypeA)
	e := expectation{id: 7, name: name}
	if err := checkAnswer(answer(t, q, servers, 0), e); err != nil {
		t.Fatalf("no-ECS answer rejected: %v", err)
	}
	withECS := dnsmsg.NewQuery(7, name, dnsmsg.TypeA)
	_ = withECS.SetClientSubnet(netip.MustParseAddr("1.2.3.0"), 24)
	if err := checkAnswer(answer(t, withECS, servers, 24), e); err == nil {
		t.Fatal("ECS option in the answer to a no-ECS query accepted")
	}
	r := q.Reply()
	r.RCode = dnsmsg.RCodeServerFailure
	wire, _ := r.Pack()
	if err := checkAnswer(wire, e); err == nil {
		t.Fatal("SERVFAIL accepted")
	}
}

// TestWindowCapsInFlight runs a 50 ms phase against a socket that never
// answers: the generator sends maxInFlight queries and holds the rest;
// when those time out a second window goes, and the phase ends, every
// query lost, at the last due time plus the timeout.
func TestWindowCapsInFlight(t *testing.T) {
	in := testInputs(t)
	s, err := in.newSchedule(3, "window", 20000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.due) <= maxInFlight {
		t.Fatalf("schedule of %d queries does not exceed the window", len(s.due))
	}
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	c, err := dialUDP(sink.LocalAddr().(*net.UDPAddr).Port)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	var r phaseResult
	runPhase(c, s, &r)
	got := 0
	buf := make([]byte, slotSize)
	_ = sink.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	for {
		if _, err := sink.Read(buf); err != nil {
			break
		}
		got++
	}
	if got != 2*maxInFlight {
		t.Fatalf("server received %d queries, want two windows of %d", got, maxInFlight)
	}
	for i, d := range r.lat {
		if d >= 0 {
			t.Fatalf("query %d has latency %d with no answer", i, d)
		}
	}
	if r.nHeld != len(s.due)-maxInFlight {
		t.Fatalf("%d queries held by the window, want all %d after the first window", r.nHeld, len(s.due)-maxInFlight)
	}
	if r.wallNs < s.due[len(s.due)-1]+int64(timeout) {
		t.Fatalf("phase ended at %d ns, before the last due time plus the timeout", r.wallNs)
	}
}
