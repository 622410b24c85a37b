package main

import (
	"fmt"
)

// report turns a run's measurements into the result: correctness,
// attempted and failed operations, and the end-to-end (untraced) or
// per-layer (traced) metrics.
func (b *bench) report(sr *servingRun, ups []update, rp *replay) {
	res := b.res
	res.Correct = true
	phases := append([]*phaseStats{sr.light, sr.heavy}, sr.ladder...)
	if sr.plainHeavy != nil {
		phases = append(phases, sr.plainHeavy)
	}
	for _, p := range phases {
		res.note("phase %-14s %6.0f qps: %6d sent, %4d lost, %d wrong, p50 %7.1f µs, p99 %8.1f µs (whole %8.1f), 2nd-half p50 %7.1f µs, late p50/p99 %.1f/%.1f µs, gen busy %.2f, %d held by the window, rcvbuf drops %.0f, server cpu %.3f s",
			p.name, p.rate, p.sent, p.lost, p.wrong, p.p50us, p.p99us, p.p99all, p.tailP50us, p.lateP50us, p.lateP99, p.genShare, p.held, p.rcvbufDrops, p.userS+p.sysS)
		if p.firstErr != nil {
			res.Correct = false
			res.note("WRONG ANSWER: %v", p.firstErr)
		}
		if err := p.valid(); err != nil {
			res.Correct = false
			res.note("INVALID: %v", err)
		}
	}
	// Failures count at the two fixed rates; ladder steps above the knee
	// fail by design.
	res.Attempted = int64(sr.light.sent + sr.heavy.sent)
	res.Failed = int64(sr.light.failed() + sr.heavy.failed())
	var incr, full, all []float64
	var syncIncr, fetchIncr, syncFull, encDelta, encFull, decode, fetch, deltaBytes, fullBytes []float64
	var reranked uint64
	for i, u := range ups {
		res.Attempted++
		if u.mismatch != nil {
			res.Failed++
			res.Correct = false
			res.note("REPLICA MISMATCH after update %d: %v", i+1, u.mismatch)
		}
		all = append(all, u.propagateMs)
		reranked += u.reranked
		fetch = append(fetch, u.fetchMs)
		decode = append(decode, u.decodeMs)
		if u.full {
			full = append(full, u.propagateMs)
			syncFull = append(syncFull, u.syncMs)
		} else {
			incr = append(incr, u.propagateMs)
			syncIncr = append(syncIncr, u.syncMs)
			fetchIncr = append(fetchIncr, u.fetchMs)
		}
		if u.delta {
			encDelta = append(encDelta, u.encodeMs)
			deltaBytes = append(deltaBytes, float64(u.imageBytes))
		} else {
			encFull = append(encFull, u.encodeMs)
			fullBytes = append(fullBytes, float64(u.imageBytes))
		}
	}
	res.note("propagation: %d updates (%d full), propagate p50 %.3f ms, p99 %.1f ms (incremental median %.3f: sync %.3f + fetch %.3f; full median %.1f ms)",
		len(ups), len(full), median(all), quantile(sorted(all), 0.99), median(incr), median(syncIncr), median(fetchIncr), median(full))
	res.note("publisher+replica set-up %.3f s; eumdns set-ups %v s", b.pair.setupS, fmtList(b.setups))
	res.note("failures are lost, unanswered %v after sending, non-NOERROR or wrong answers at the light and heavy rates, plus replica mismatches; at most %d queries are in flight, and due queries wait while the window is full; kernel drop counters are namespace-wide", timeout, maxInFlight)

	cpuHeavy := cpuPerQuery(sr.heavy)
	if b.o.trace == 0 {
		res.set("setup_s", "s", median(b.setups))
		res.set("cpu_us_per_q.heavy", "us", cpuHeavy)
		res.set("rss_mb", "MiB", sr.rssMB)
		return
	}
	res.note("knee %.0f qps", sr.knee)
	// Not metrics: shedding cannot occur in these servers, and the
	// overhead is a difference of two processes' CPU that noise can make
	// zero or negative.
	res.note("dnsserver.shed not reported: eumdns serves with shed policy block, under which readers wait for a free worker and no query is shed (dnsserver_shed_total moved by %.0f)",
		sr.scrape.delta("dnsserver_shed_total"))
	res.note("trace.overhead %+.2f µs per query: traced minus untraced cpu_us_per_q.heavy (%.2f - %.2f), two server processes, so either sign is within noise",
		cpuHeavy-cpuPerQuery(sr.plainHeavy), cpuHeavy, cpuPerQuery(sr.plainHeavy))

	// Traced run: per-layer metrics.
	h, sd := sr.heavy, &sr.scrape
	answered := float64(h.sent - h.lost)
	var lost, drops float64
	for _, p := range phases {
		if p != sr.plainHeavy {
			lost += float64(p.lost)
			drops += p.rcvbufDrops
		}
	}
	userUs, sysUs := ratio(h.userS*1e6, answered), ratio(h.sysS*1e6, answered)
	inHandlerUs := (rp.unpackNs + rp.serveNs + rp.packNs) / 1e3
	// Latency, the knee and propagation time move with how often, and how
	// long, the host and the collector stall or slow the processes in a
	// run — by more than any bound a regression gate can use on a shared
	// 2-vCPU virtual machine — so they are reported here, not gated.
	res.set("p50_us.light", "us", sr.light.p50us)
	res.set("p50_us.heavy", "us", h.p50us)
	res.set("p99_us.light", "us", sr.light.p99us)
	res.set("p99_us.heavy", "us", h.p99us)
	res.set("knee_qps", "1/s", sr.knee)
	res.set("propagate_ms.p50", "ms", quantile(sorted(all), 0.5))
	res.set("propagate_ms.p99", "ms", quantile(sorted(all), 0.99))
	res.set("gen.late_p50_us", "us", h.lateP50us)
	res.set("gen.late_p99_us", "us", h.lateP99)
	res.set("gen.cpu_share", "ratio", h.genShare)
	res.set("gen.held_share", "ratio", ratio(float64(h.held), float64(h.sent)))
	res.set("kernel.rcvbuf_drops", "count", drops)
	res.set("kernel.unattributed_loss", "count", max(0, lost-drops))
	res.set("server.user_us_per_q", "us", userUs)
	res.set("server.sys_us_per_q", "us", sysUs)
	res.set("server.gc_per_100k_q", "count", ratio(float64(sd.gc1-sd.gc0)*1e5, answered))
	res.set("dnsserver.pkts_per_wakeup", "ratio", sd.m1["dnsserver_shard0_packets_per_wakeup"])
	res.set("dnsserver.handler_us", "us", sd.meanOf("dnsserver_serve_latency_seconds")*1e6)
	res.set("dnsserver.self_us_per_q", "us", userUs-inHandlerUs)
	res.set("dnsmsg.unpack_ns", "ns", rp.unpackNs)
	res.set("dnsmsg.pack_ns", "ns", rp.packNs)
	res.set("dnsmsg.allocs_per_q", "count", rp.dnsmsgAllocs)
	res.set("authority.serve_ns", "ns", rp.serveNs)
	res.set("authority.allocs_per_q", "count", rp.authAllocs)
	res.set("authority.cache_hit_ratio", "ratio", ratio(sd.delta("authority_cache_hits_total"),
		sd.delta("authority_cache_hits_total")+sd.delta("authority_cache_misses_total")))
	res.set("authority.decision_us", "us", sd.meanOf("authority_decision_latency_seconds")*1e6)
	res.set("mapping.mapat_ns", "ns", rp.mapNs)
	res.set("mapping.mapat_allocs", "count", rp.mapAllocs)
	res.set("mapmaker.sync_ms.incr", "ms", mean(syncIncr))
	res.set("mapmaker.sync_ms.full", "ms", mean(syncFull))
	res.set("mapping.reranked_tables", "count", float64(reranked))
	res.set("mapwire.encode_delta_us", "us", mean(encDelta)*1e3)
	res.set("mapwire.encode_full_ms", "ms", mean(encFull))
	res.set("mapwire.decode_ms", "ms", mean(decode))
	res.set("mapwire.delta_bytes", "bytes", mean(deltaBytes))
	res.set("mapwire.full_bytes", "bytes", mean(fullBytes))
	st := b.pair.fetcher.Status()
	images := float64(st.FullImages + st.DeltaImages - 1) // less the set-up fetch
	res.set("mapdist.fetch_ms", "ms", mean(fetch))
	res.set("mapdist.delta_share", "ratio", ratio(float64(st.DeltaImages), images))
	res.set("mapdist.bytes_per_update", "bytes", ratio(float64(st.FullBytes+st.DeltaBytes-b.pair.firstFetchBytes), float64(len(ups))))
	res.set("reconcile.attributed_share", "ratio", ratio(inHandlerUs+sysUs, userUs+sysUs))

	spans := rp.spans
	for i, u := range ups {
		spans = append(spans,
			span{"mapmaker.Sync", i, 0, int64(u.syncMs * 1e6)},
			span{"mapwire.Encode", i, 0, int64(u.encodeMs * 1e6)},
			span{"mapwire.Decode", i, 0, int64(u.decodeMs * 1e6)},
			span{"mapdist.FetchOnce", i, 0, int64(u.fetchMs * 1e6)})
	}
	path := outPath(b.o, fmt.Sprintf("spans-%s-seed%d.tsv", b.wl.name, b.o.seed))
	if err := writeSpans(path, spans); err != nil {
		res.note("spans not written: %v", err)
	} else {
		res.note("spans: %s", path)
	}
}

// cpuPerQuery is the server's user+system CPU per answered query, in µs.
func cpuPerQuery(p *phaseStats) float64 {
	return ratio((p.userS+p.sysS)*1e6, float64(p.sent-p.lost))
}

func fmtList(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
