package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"eum/internal/dnsmsg"
	"eum/internal/world"
)

// zone is the zone eumdns serves by default; every query asks for an A
// record of a content domain under it.
const zone = "cdn.example.net"

// ECS kinds a query can carry, following the public-resolver mix of
// "Public DNS Resolvers Meet Content Delivery Networks": a full /24, a
// truncated /20, or no client subnet at all.
const (
	ecs24 = iota
	ecs20
	ecsNone
)

// workload is one named traffic mix plus one propagation programme. Every
// workload runs both halves, so every run reports every metric; the
// fields pick the world and the emphasis.
type workload struct {
	name string
	// blocks sizes the world (seed fixed at 1, as eumdns defaults).
	blocks int
	// catalog is the number of content domains; zipf > 0 draws them from a
	// Zipf distribution with that exponent, otherwise uniformly.
	catalog int
	zipf    float64
	// byDemand draws client /24s by the world's per-block Demand;
	// otherwise uniformly over all blocks.
	byDemand bool
	// share of queries by ECS kind (ecs24, ecs20, ecsNone); sums to 1.
	mix [3]float64
	// Every fullEvery-th update of the propagation programme is an
	// unscoped (full re-rank) refresh.
	fullEvery int
	// setups is how many eumdns start-ups an untraced run times; setup_s
	// is their median. Odd, so the median is one of them.
	setups int
}

// Fixed offered rates of the light and heavy latency points, queries per
// second, and the propagation programme every workload runs: updates
// closed-loop map updates, each scoped one moving dirtyTargets ping
// targets.
const (
	lightQPS     = 5000
	heavyQPS     = 20000
	updates      = 100
	dirtyTargets = 3
)

// ladder is the fixed knee ladder every workload climbs, queries per
// second, ascending.
var ladder = []float64{10000, 15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000, 55000,
	60000, 65000, 70000, 75000, 80000, 85000, 90000, 95000, 100000}

var workloads = map[string]workload{
	// hot: the answer cache hits on most queries, so per-packet cost in
	// dnsserver, dnsmsg and the kernel dominates and mapping is mostly
	// bypassed. The Zipf exponent and the 64-domain catalog are
	// placeholders, not measured figures: they only make a few domains
	// carry most queries (Go's rand.Zipf needs an exponent above 1).
	"hot": {
		name: "hot", blocks: 8000, catalog: 64, zipf: 1.1, byDemand: true,
		mix:       [3]float64{0.8, 0, 0.2},
		fullEvery: 33, setups: 11,
	},
	// wide: the (domain, /24) working set far exceeds the answer cache,
	// so most queries miss and run mapping.MapAt; /20 queries take the
	// truncated-ECS range scan. Its 100k-block map makes the propagation
	// half's full re-rank and full image the costliest map updates.
	"wide": {
		name: "wide", blocks: 100000, catalog: 4096, byDemand: false,
		mix:       providerMix(world.ModernProviders()),
		fullEvery: 50, setups: 7,
	},
}

// providerMix is the share of public-resolver demand by the ECS kind the
// providers forward, the world's model of today's resolver landscape.
func providerMix(ps []world.ProviderSpec) [3]float64 {
	var mix [3]float64
	total := 0.0
	for _, p := range ps {
		var kind int
		switch v4, _ := p.ECSPrefixes(); v4 {
		case world.ECSFullPrefixV4:
			kind = ecs24
		case world.ECSTruncatedPrefixV4:
			kind = ecs20
		case 0:
			kind = ecsNone
		default:
			panic(fmt.Sprintf("provider %s forwards /%d, which no ECS kind models", p.Name, v4))
		}
		mix[kind] += p.Share
		total += p.Share
	}
	for i := range mix {
		mix[i] /= total
	}
	return mix
}

// query is one generated input: which block, domain and ECS kind.
type query struct {
	block  int32
	domain int32
	kind   uint8
}

func domainName(i int32) string { return fmt.Sprintf("c%d.%s", i, zone) }

// inputs draws queries for a workload. It is deterministic in (seed,
// stream), and independent of timing, so a replay sees exactly what the
// server saw.
type inputs struct {
	wl      workload
	w       *world.World
	cum     []float64 // cumulative block demand (byDemand)
	domains []dnsmsg.Name
}

func newInputs(wl workload, w *world.World) *inputs {
	in := &inputs{wl: wl, w: w}
	if wl.byDemand {
		in.cum = make([]float64, len(w.Blocks))
		s := 0.0
		for i, b := range w.Blocks {
			s += b.Demand
			in.cum[i] = s
		}
	}
	in.domains = make([]dnsmsg.Name, wl.catalog)
	for i := range in.domains {
		in.domains[i] = dnsmsg.Name(domainName(int32(i)))
	}
	return in
}

// draw returns n queries from the workload's mix.
func (in *inputs) draw(rng *rand.Rand, n int) []query {
	var z *rand.Zipf
	if in.wl.zipf > 0 {
		z = rand.NewZipf(rng, in.wl.zipf, 1, uint64(in.wl.catalog-1))
	}
	qs := make([]query, n)
	for i := range qs {
		var q query
		if z != nil {
			q.domain = int32(z.Uint64())
		} else {
			q.domain = int32(rng.Intn(in.wl.catalog))
		}
		if in.cum != nil {
			u := rng.Float64() * in.cum[len(in.cum)-1]
			q.block = int32(sort.SearchFloat64s(in.cum, u))
			if int(q.block) >= len(in.cum) {
				q.block = int32(len(in.cum) - 1)
			}
		} else {
			q.block = int32(rng.Intn(len(in.w.Blocks)))
		}
		u := rng.Float64()
		switch {
		case u < in.wl.mix[ecs24]:
			q.kind = ecs24
		case u < in.wl.mix[ecs24]+in.wl.mix[ecs20]:
			q.kind = ecs20
		default:
			q.kind = ecsNone
		}
		qs[i] = q
	}
	return qs
}

// ecsPrefix is the client subnet a query reveals, invalid for ecsNone.
func (in *inputs) ecsPrefix(q query) netip.Prefix {
	addr := in.w.Blocks[q.block].Prefix.Addr()
	switch q.kind {
	case ecs24:
		return netip.PrefixFrom(addr, 24).Masked()
	case ecs20:
		return netip.PrefixFrom(addr, 20).Masked()
	}
	return netip.Prefix{}
}

// pack appends the wire form of q with the given DNS ID.
func (in *inputs) pack(buf []byte, q query, id uint16) ([]byte, error) {
	m := dnsmsg.NewQuery(id, in.domains[q.domain], dnsmsg.TypeA)
	m.RecursionDesired = false
	if p := in.ecsPrefix(q); p.IsValid() {
		if err := m.SetClientSubnet(p.Addr(), uint8(p.Bits())); err != nil {
			return nil, err
		}
	}
	wire, err := m.Pack()
	if err != nil {
		return nil, err
	}
	return append(buf, wire...), nil
}

// schedule is one open-loop phase: Poisson arrivals at a fixed offered
// rate, pre-packed before timing starts.
type schedule struct {
	name    string
	rate    float64
	due     []int64 // send time of each query, ns from phase start
	queries []query
	wire    []byte  // all packed queries back to back
	off     []int32 // wire[off[i]:off[i+1]] is query i
}

func (s *schedule) msg(i int) []byte { return s.wire[s.off[i]:s.off[i+1]] }

// newSchedule draws a phase of the given rate and length. IDs are the
// query's index modulo 2^16, which the generator relies on to match
// answers (see maxInFlight).
func (in *inputs) newSchedule(seed int64, stream string, rate, seconds float64) (*schedule, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, stream)))
	var due []int64
	t := 0.0
	end := seconds * 1e9
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= end {
			break
		}
		due = append(due, int64(t))
	}
	s := &schedule{rate: rate, due: due, queries: in.draw(rng, len(due))}
	s.off = make([]int32, 0, len(due)+1)
	s.wire = make([]byte, 0, len(due)*64)
	for i, q := range s.queries {
		s.off = append(s.off, int32(len(s.wire)))
		var err error
		if s.wire, err = in.pack(s.wire, q, uint16(i)); err != nil {
			return nil, err
		}
	}
	s.off = append(s.off, int32(len(s.wire)))
	return s, nil
}

// subSeed derives an independent stream seed from the workload seed and a
// stream label (FNV-1a over both).
func subSeed(seed int64, stream string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= 1099511628211
	}
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return int64(h & math.MaxInt64)
}
