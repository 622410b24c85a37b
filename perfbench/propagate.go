package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"eum/internal/cdn"
	"eum/internal/config"
	"eum/internal/mapdist"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// shiftProber is the default network model with seeded perturbations on
// chosen ping targets: each perturbed target's ping to each deployment
// gains a different 0–40 ms, so re-ranking its tables reorders them and
// the answers its blocks get can change. Builds read it from several
// goroutines; it is only written between builds.
type shiftProber struct {
	base  mapping.Prober
	epoch map[uint64]uint64 // target endpoint ID → update that last moved it
}

func (p *shiftProber) PingMs(a, b netmodel.Endpoint) float64 {
	ms := p.base.PingMs(a, b)
	if g, ok := p.epoch[b.ID]; ok {
		ms += float64(mix64(g, b.ID, a.ID)%4000) / 100
	}
	return ms
}

func mix64(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return h
}

// eumdnsConfig is eumdns's default configuration at a world size; the
// in-process systems use its constructors' parameters.
func eumdnsConfig(blocks int) config.Config {
	cfg := config.Default()
	cfg.World.Blocks = blocks
	cfg.StaleMaxAgeSeconds = 0
	cfg.MapRefreshSeconds = 0
	return cfg
}

// pair is the in-process distribution plane: a publisher System with a
// MapMaker and a mapdist.Publisher on loopback HTTP, and a replica System
// with a Fetcher. Its set-up time covers both Systems built and the
// replica's first full fetch. Both Systems share one world and platform, generated
// exactly as eumdns generates them, so the publisher's boot map is the map
// a freshly started eumdns serves.
type pair struct {
	w         *world.World
	platform  *cdn.Platform
	prober    *shiftProber
	pub       *mapping.System
	boot      *mapping.Snapshot
	mm        *mapmaker.MapMaker
	publisher *mapdist.Publisher
	rep       *mapping.System
	fetcher   *mapdist.Fetcher
	mcfg      mapping.Config
	srv       *http.Server
	addr      string
	served    chan error
	setupS    float64
	// firstFetchBytes is the set-up fetch's full image size.
	firstFetchBytes uint64
}

// newPublisher builds the publisher half of the pair and starts its HTTP
// listener; addReplica completes the pair.
func newPublisher(blocks int) (*pair, error) {
	cfg := eumdnsConfig(blocks)
	policy, err := cfg.MappingPolicy()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	w, err := world.Generate(world.Config{Seed: cfg.World.Seed, NumBlocks: cfg.World.Blocks, IPv6Fraction: cfg.World.IPv6Fraction})
	if err != nil {
		return nil, err
	}
	platform, err := cdn.GenerateUniverse(w, cdn.Config{Seed: cfg.Platform.Seed, NumDeployments: cfg.Platform.Deployments, ServersPerDeployment: cfg.Platform.ServersPer})
	if err != nil {
		return nil, err
	}
	mcfg := mapping.Config{Policy: policy, PingTargets: cfg.World.Blocks / 10, PartitionMiles: cfg.PartitionMiles, BalanceFactor: cfg.BalanceFactor}
	pr := &pair{w: w, platform: platform, mcfg: mcfg, prober: &shiftProber{base: netmodel.NewDefault(), epoch: map[uint64]uint64{}}}
	pr.pub = mapping.NewSystem(w, platform, pr.prober, mcfg)
	pr.boot = pr.pub.Current()
	pr.mm = mapmaker.New(pr.pub, mapmaker.Config{})
	pr.publisher = mapdist.NewPublisher(pr.pub, platform, mapdist.PublisherConfig{})
	pr.mm.SetOnPublish(pr.publisher.Observe)

	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle(mapdist.SnapshotPath, pr.publisher)
	pr.srv = &http.Server{Handler: mux}
	pr.served = make(chan error, 1)
	pr.addr = ln.Addr().String()
	go func() { pr.served <- pr.srv.Serve(ln) }()
	pr.setupS = time.Since(start).Seconds()
	return pr, nil
}

// addReplica builds the replica System and its Fetcher, and fetches the
// first (full) image; its time adds to the pair's set-up.
func (pr *pair) addReplica() error {
	start := time.Now()
	pr.rep = mapping.NewSystem(pr.w, pr.platform, netmodel.NewDefault(), pr.mcfg)
	pr.rep.BootstrapReplica()
	var err error
	if pr.fetcher, err = mapdist.NewFetcher(pr.rep, pr.platform, mapdist.FetcherConfig{Source: pr.addr}); err != nil {
		return err
	}
	if err := pr.fetcher.FetchOnce(context.Background()); err != nil {
		return fmt.Errorf("first full fetch: %w", err)
	}
	pr.setupS += time.Since(start).Seconds()
	pr.firstFetchBytes = pr.fetcher.Status().FullBytes
	return nil
}

func (pr *pair) close() {
	_ = pr.srv.Close()
	if err := <-pr.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# publisher http: %v\n", err)
	}
}

// update is one closed-loop map update as measured.
type update struct {
	full        bool
	propagateMs float64
	syncMs      float64
	fetchMs     float64
	reranked    uint64
	// Traced runs only: the same image encoded and decoded here.
	encodeMs, decodeMs float64
	imageBytes         int
	delta              bool
	mismatch           error
}

// churner runs a workload's update programme, a few updates at a time:
// each update moves a few seed-chosen ping targets, notifies the MapMaker
// (scoped to those targets, or unscoped every fullEvery-th update), syncs,
// and has the replica fetch once; then sampled blocks — the moved
// targets' blocks among them — must answer identically on publisher and
// replica.
type churner struct {
	pr       *pair
	wl       workload
	traced   bool
	rng      *rand.Rand
	targets  []uint64         // ping targets backing at least one block
	byTarget map[uint64][]int // target → indexes of the blocks it backs
	codec    *mapwire.Codec
	ups      []update
}

func (pr *pair) churner(wl workload, seed int64, traced bool) (*churner, error) {
	c := &churner{pr: pr, wl: wl, traced: traced, rng: rand.New(rand.NewSource(subSeed(seed, "updates"))),
		byTarget: map[uint64][]int{}, codec: mapwire.NewCodec(pr.platform)}
	sc := pr.pub.Scorer()
	for i, b := range pr.w.Blocks {
		if t, ok := sc.TargetFor(b.Endpoint()); ok {
			c.byTarget[t.ID] = append(c.byTarget[t.ID], i)
		}
	}
	for id := range c.byTarget {
		c.targets = append(c.targets, id)
	}
	sort.Slice(c.targets, func(i, j int) bool { return c.targets[i] < c.targets[j] })
	if len(c.targets) == 0 {
		return nil, fmt.Errorf("no ping targets back any block")
	}
	return c, nil
}

// run performs up to n more updates of the programme.
func (c *churner) run(n int) error {
	for ; n > 0 && len(c.ups) < updates; n-- {
		up, err := c.update(len(c.ups) + 1)
		if err != nil {
			return err
		}
		c.ups = append(c.ups, up)
	}
	return nil
}

// update performs and checks update number u (from 1).
func (c *churner) update(u int) (update, error) {
	pr := c.pr
	up := update{full: u%c.wl.fullEvery == 0}
	ids := make([]uint64, dirtyTargets)
	for i := range ids {
		ids[i] = c.targets[c.rng.Intn(len(c.targets))]
		pr.prober.epoch[ids[i]] = uint64(u)
	}
	prevPub, prevRep := pr.pub.Current(), pr.rep.Current()
	_, _, rr0 := pr.pub.Builder().BuildStats()

	restoreGC := quiesceGC(up.full)
	t0 := time.Now()
	if up.full {
		pr.mm.NotifyMeasurement()
	} else {
		pr.mm.NotifyMeasurement(ids...)
	}
	sn := pr.mm.Sync()
	up.syncMs = ms(time.Since(t0))
	if c.traced {
		if err := up.timeCodec(c.codec, prevPub, prevRep, sn); err != nil {
			restoreGC()
			return up, fmt.Errorf("update %d: %w", u, err)
		}
	}
	tf := time.Now()
	err := pr.fetcher.FetchOnce(context.Background())
	up.fetchMs = ms(time.Since(tf))
	restoreGC()
	if err != nil {
		return up, fmt.Errorf("update %d: fetch: %w", u, err)
	}
	up.propagateMs = up.syncMs + up.fetchMs
	_, _, rr1 := pr.pub.Builder().BuildStats()
	up.reranked = rr1 - rr0
	if got := pr.rep.Current().Epoch(); got != sn.Epoch() {
		up.mismatch = fmt.Errorf("replica at epoch %d, publisher at %d", got, sn.Epoch())
	} else {
		up.mismatch = pr.compare(c.rng, sn, ids, c.byTarget)
	}
	return up, nil
}

// quiesceGC readies the collector for one timed update and returns the
// function that restores it. An incremental update runs with the
// collector off (turning it off waits out any collection in flight), so it
// never pays for collecting earlier updates' garbage. A full update
// allocates a whole map: it starts from a collected heap and collects as
// it goes, as a long-running publisher would.
func quiesceGC(full bool) func() {
	if full {
		runtime.GC()
		return func() {}
	}
	gc := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(gc) }
}

// timeCodec encodes the image the publisher will ship for sn (a delta
// against prevPub when one is expressible, else a full image) and decodes
// it against the replica's installed snapshot, timing both. The publisher
// encodes inside its HTTP handler, out of this program's reach, so traced
// runs time the codec here, outside the propagation time.
func (up *update) timeCodec(codec *mapwire.Codec, prevPub, prevRep, sn *mapping.Snapshot) error {
	t0 := time.Now()
	var img []byte
	var err error
	ok := false
	if !up.full {
		img, ok, err = codec.EncodeDelta(prevPub, sn)
	}
	if err == nil && !ok {
		img, err = codec.EncodeFull(sn)
	}
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	t1 := time.Now()
	if _, err := codec.Decode(img, prevRep); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	up.encodeMs = ms(t1.Sub(t0))
	up.decodeMs = ms(time.Since(t1))
	up.imageBytes = len(img)
	up.delta = ok
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// compare checks that sampled blocks answer identically on the
// publisher's snapshot sn and the replica's installed one: 32 random
// blocks plus up to 4 blocks of every moved target, each as a /24 and a
// truncated /20 query.
func (pr *pair) compare(rng *rand.Rand, sn *mapping.Snapshot, moved []uint64, byTarget map[uint64][]int) error {
	var sample []int
	for i := 0; i < 32; i++ {
		sample = append(sample, rng.Intn(len(pr.w.Blocks)))
	}
	for _, id := range moved {
		bs := byTarget[id]
		for i := 0; i < 4 && i < len(bs); i++ {
			sample = append(sample, bs[rng.Intn(len(bs))])
		}
	}
	repSn := pr.rep.Current()
	for _, bi := range sample {
		addr := pr.w.Blocks[bi].Prefix.Addr()
		for _, bits := range []int{24, 20} {
			req := mapping.Request{
				Domain:       domainName(int32(rng.Intn(64))),
				LDNS:         resolverAddr,
				ClientSubnet: netip.PrefixFrom(addr, bits).Masked(),
			}
			a, errA := pr.pub.MapAt(sn, req)
			b, errB := pr.rep.MapAt(repSn, req)
			if errA != nil || errB != nil {
				return fmt.Errorf("block %d /%d: publisher err %v, replica err %v", bi, bits, errA, errB)
			}
			if !sameDecision(a, b) {
				return fmt.Errorf("block %d /%d: publisher %s %v scope %d, replica %s %v scope %d", bi, bits,
					a.Deployment.Name, a.Servers, a.ScopePrefix, b.Deployment.Name, b.Servers, b.ScopePrefix)
			}
		}
	}
	return nil
}

func sameDecision(a, b *mapping.Response) bool {
	if a.Deployment != b.Deployment || a.ScopePrefix != b.ScopePrefix || len(a.Servers) != len(b.Servers) {
		return false
	}
	for i := range a.Servers {
		if a.Servers[i].Addr != b.Servers[i].Addr {
			return false
		}
	}
	return true
}
