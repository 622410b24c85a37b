package main

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"time"

	"eum/internal/authority"
	"eum/internal/dnsmsg"
	"eum/internal/mapping"
)

// scrapeDelta holds a traced server's /metrics, its GC count and its CPU
// before and after one phase.
type scrapeDelta struct {
	m0, m1   map[string]float64
	gc0, gc1 int
}

func (d *scrapeDelta) before(s *server) (err error) {
	d.gc0 = s.gcCycles()
	d.m0, err = s.scrape()
	return err
}

func (d *scrapeDelta) after(s *server) (err error) {
	d.m1, err = s.scrape()
	d.gc1 = s.gcCycles()
	return err
}

func (d *scrapeDelta) delta(name string) float64 { return d.m1[name] - d.m0[name] }

// meanOf is the mean of a histogram over the phase, in the histogram's
// unit (seconds for the latency histograms).
func (d *scrapeDelta) meanOf(hist string) float64 {
	return ratio(d.delta(hist+"_sum"), d.delta(hist+"_count"))
}

// span is one timed call into a layer, recorded by the traced replay.
type span struct {
	layer string
	query int
	start int64 // ns since the replay began
	dur   int64
}

// replay is the traced in-process re-run of the heavy phase's exact
// queries through the same layers eumdns runs them through.
type replay struct {
	n                                   int
	unpackNs, serveNs, packNs, mapNs    float64
	dnsmsgAllocs, authAllocs, mapAllocs float64
	spans                               []span
}

// replayChunk bounds how many unpacked queries and responses are live at
// once.
const replayChunk = 4096

// replayHeavy replays the heavy schedule's packed queries against a fresh
// authority over the reference System, built as eumdns builds its own
// (authority.New, one shard, the default degrade config), recording a span
// around each call: dnsmsg.UnpackInto, Authority.ServeDNSShard,
// Message.AppendPack, and — in a separate pass over the same requests —
// System.MapAt. Allocation counts come from runtime.MemStats around each
// pass.
func (b *bench) replayHeavy() (*replay, error) {
	heavy, err := b.schedule("heavy", heavyQPS, heavyShare)
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(dnsmsg.Name(zone), b.ref.sys)
	if err != nil {
		return nil, err
	}
	auth.SetShards(1)
	auth.SetDegradeConfig(eumdnsConfig(b.wl.blocks).DegradeConfig())
	remote := netip.AddrPortFrom(resolverAddr, 53000)
	n := len(heavy.due)
	rp := &replay{n: n, spans: make([]span, 0, 4*n)}
	msgs := make([]dnsmsg.Message, replayChunk)
	resps := make([]*dnsmsg.Message, replayChunk)
	reqs := make([]mapping.Request, replayChunk)
	out := make([]byte, 0, 1024)
	var ms0, ms1 runtime.MemStats
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	var unpackAllocs, packAllocs, serveAllocs, mapAllocs uint64
	var unpackNs, serveNs, packNs, mapNs int64
	for lo := 0; lo < n; lo += replayChunk {
		hi := min(lo+replayChunk, n)
		runtime.ReadMemStats(&ms0)
		for i := lo; i < hi; i++ {
			t := now()
			if err := dnsmsg.UnpackInto(&msgs[i-lo], heavy.msg(i)); err != nil {
				return nil, fmt.Errorf("replay unpack %d: %w", i, err)
			}
			d := now() - t
			unpackNs += d
			rp.spans = append(rp.spans, span{"dnsmsg.UnpackInto", i, t, d})
		}
		runtime.ReadMemStats(&ms1)
		unpackAllocs += ms1.Mallocs - ms0.Mallocs
		for i := lo; i < hi; i++ {
			t := now()
			resps[i-lo] = auth.ServeDNSShard(0, remote, &msgs[i-lo])
			d := now() - t
			serveNs += d
			rp.spans = append(rp.spans, span{"authority.ServeDNSShard", i, t, d})
		}
		runtime.ReadMemStats(&ms0)
		serveAllocs += ms0.Mallocs - ms1.Mallocs
		for i := lo; i < hi; i++ {
			t := now()
			out, err = resps[i-lo].AppendPack(out[:0])
			d := now() - t
			if err != nil {
				return nil, fmt.Errorf("replay pack %d: %w", i, err)
			}
			packNs += d
			rp.spans = append(rp.spans, span{"dnsmsg.AppendPack", i, t, d})
		}
		runtime.ReadMemStats(&ms1)
		packAllocs += ms1.Mallocs - ms0.Mallocs
		for i := lo; i < hi; i++ {
			reqs[i-lo] = b.ref.request(heavy.queries[i])
		}
		sn := b.ref.sn
		runtime.ReadMemStats(&ms0)
		for i := lo; i < hi; i++ {
			t := now()
			_, err := b.ref.sys.MapAt(sn, reqs[i-lo])
			d := now() - t
			if err != nil {
				return nil, fmt.Errorf("replay MapAt %d: %w", i, err)
			}
			mapNs += d
			rp.spans = append(rp.spans, span{"mapping.MapAt", i, t, d})
		}
		runtime.ReadMemStats(&ms1)
		mapAllocs += ms1.Mallocs - ms0.Mallocs
	}
	fn := float64(n)
	rp.unpackNs, rp.serveNs, rp.packNs, rp.mapNs = float64(unpackNs)/fn, float64(serveNs)/fn, float64(packNs)/fn, float64(mapNs)/fn
	rp.dnsmsgAllocs = float64(unpackAllocs+packAllocs) / fn
	rp.authAllocs = float64(serveAllocs) / fn
	rp.mapAllocs = float64(mapAllocs) / fn
	return rp, nil
}

// writeSpans writes the run's spans, one tab-separated line each (layer,
// query or update index, start ns, duration ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tindex\tstart_ns\tdur_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.layer, s.query, s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
