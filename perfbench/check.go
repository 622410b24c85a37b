package main

import (
	"fmt"
	"net/netip"

	"eum/internal/dnsmsg"
	"eum/internal/mapping"
)

// resolverAddr is the source address every benchmark query arrives from;
// queries without ECS are routed by it, so all of them share one resolver
// and, per domain, one answer-cache entry.
var resolverAddr = netip.AddrFrom4([4]byte{127, 0, 0, 1})

// expectation is what a correct answer to one query must show.
type expectation struct {
	id   uint16
	name dnsmsg.Name
	ecs  netip.Prefix // the query's client subnet; invalid for ecsNone
	// servers, when non-nil, are the A records the reference System
	// answers, in order.
	servers []netip.Addr
}

// checkAnswer validates one answer: ID echo, NOERROR, the question, at
// least one A record, and RFC 7871 scope — the option echoed with scope
// 24 for a /24 query and 20 for a truncated /20 query, and no option for
// a query without ECS. With e.servers set, the A records must also match
// the reference deployment's servers.
func checkAnswer(wire []byte, e expectation) error {
	m, err := dnsmsg.Unpack(wire)
	if err != nil {
		return fmt.Errorf("unpack: %w", err)
	}
	if m.ID != e.id {
		return fmt.Errorf("id %d, want %d", m.ID, e.id)
	}
	if !m.Response || m.RCode != dnsmsg.RCodeSuccess {
		return fmt.Errorf("rcode %v (response %v), want NOERROR", m.RCode, m.Response)
	}
	if len(m.Questions) != 1 || m.Questions[0].Name.Canonical() != e.name.Canonical() || m.Questions[0].Type != dnsmsg.TypeA {
		return fmt.Errorf("question %v, want %s A", m.Questions, e.name)
	}
	var addrs []netip.Addr
	for _, rr := range m.Answers {
		a, ok := rr.Data.(*dnsmsg.A)
		if !ok {
			return fmt.Errorf("answer %v is not an A record", rr)
		}
		addrs = append(addrs, a.Addr)
	}
	if len(addrs) == 0 {
		return fmt.Errorf("no A records")
	}
	ecs := m.ClientSubnet()
	switch {
	case !e.ecs.IsValid():
		if ecs != nil {
			return fmt.Errorf("ECS option %v in answer to a query without ECS", ecs)
		}
	case ecs == nil:
		return fmt.Errorf("no ECS option echoed for %v", e.ecs)
	case ecs.Prefix() != e.ecs:
		return fmt.Errorf("ECS source %v, want %v", ecs.Prefix(), e.ecs)
	case int(ecs.ScopePrefix) != e.ecs.Bits():
		return fmt.Errorf("ECS scope /%d for a /%d query, want /%d", ecs.ScopePrefix, e.ecs.Bits(), e.ecs.Bits())
	}
	if e.servers != nil {
		if len(addrs) != len(e.servers) {
			return fmt.Errorf("servers %v, reference %v", addrs, e.servers)
		}
		for i := range addrs {
			if addrs[i] != e.servers[i] {
				return fmt.Errorf("servers %v, reference %v", addrs, e.servers)
			}
		}
	}
	return nil
}

// reference answers queries exactly as a freshly started eumdns does: its
// System is built with the same constructors and parameters, and sn is
// the boot snapshot. seed picks which answers are compared with it.
type reference struct {
	sys  *mapping.System
	sn   *mapping.Snapshot
	in   *inputs
	seed int64
}

// refSample: one answer in refSample, chosen by the seed, is compared
// with the reference servers; every answer gets the other checks.
const refSample = 16

func (r *reference) request(q query) mapping.Request {
	return mapping.Request{
		Domain:       string(r.in.domains[q.domain].Canonical()),
		LDNS:         resolverAddr,
		ClientSubnet: r.in.ecsPrefix(q),
	}
}

// servers returns the reference answer's A records for q.
func (r *reference) servers(q query) ([]netip.Addr, error) {
	resp, err := r.sys.MapAt(r.sn, r.request(q))
	if err != nil {
		return nil, err
	}
	out := make([]netip.Addr, len(resp.Servers))
	for i, s := range resp.Servers {
		out[i] = s.Addr
	}
	return out, nil
}

// expect builds the expectation for query i of a schedule, with the
// reference servers when i is in the seed's sample.
func (r *reference) expect(s *schedule, i int) (expectation, error) {
	q := s.queries[i]
	e := expectation{id: uint16(i), name: r.in.domains[q.domain], ecs: r.in.ecsPrefix(q)}
	if mix64(uint64(r.seed), uint64(i))%refSample != 0 {
		return e, nil
	}
	var err error
	e.servers, err = r.servers(q)
	return e, err
}
