package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"
)

// Serving limits for the knee: a ladder step passes when at most 0.1% of
// its queries fail, its p99 (the median over its windows, see window;
// failures counted at the timeout) is within 5 ms, and it ends without a
// growing backlog — the median over its second half's windows of each
// window's p50 within 1 ms. Latency is judged by window medians so that
// one of the host's millisecond stalls falling inside a step does not
// decide it; failures are judged over the whole step.
const (
	kneeFailRatio = 0.001
	kneeP99us     = 5000
	backlogP50us  = 1000
	// Generator validity: a phase measured the generator, not the server,
	// when the generator was busy sending and receiving for more than
	// maxGenShare of it, or its median send, among the queries the
	// in-flight window did not hold, went out later than maxLateP50us.
	// Such a run is marked invalid. A host stall of the generator now and
	// then only delays the queries due during it; the window medians the
	// results use do not move with it.
	maxGenShare  = 0.7
	maxLateP50us = 5
)

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	name               string
	rate               float64
	sent, lost, wrong  int
	p50us, p99us       float64 // medians over the phase's windows
	p99all             float64 // over the whole phase
	tailP50us          float64 // median window p50 over the second half
	lateP50us, lateP99 float64
	genShare           float64
	held               int
	rcvbufDrops        float64
	userS, sysS        float64
	firstErr           error
}

func (p *phaseStats) failed() int { return p.lost + p.wrong }

func (p *phaseStats) valid() error {
	if p.genShare > maxGenShare || p.lateP50us > maxLateP50us {
		return fmt.Errorf("%s: generator-bound (send lateness p50 %.1f µs, p99 %.1f µs; busy share %.2f)",
			p.name, p.lateP50us, p.lateP99, p.genShare)
	}
	return nil
}

func (p *phaseStats) passes() bool {
	return float64(p.failed()) <= kneeFailRatio*float64(p.sent) && p.p99us <= kneeP99us && p.tailP50us <= backlogP50us
}

// evaluate checks every answer of a phase (a seed-chosen sample against
// the reference System's servers too) and summarises latency and
// lateness.
func evaluate(name string, ref *reference, r *phaseResult) (*phaseStats, error) {
	s := r.sched
	n := len(s.due)
	st := &phaseStats{name: name, rate: s.rate, sent: n}
	failed := make([]bool, n)
	for i := 0; i < n; i++ {
		if r.lat[i] < 0 {
			st.lost++
			failed[i] = true
			continue
		}
		e, err := ref.expect(s, i)
		if err != nil {
			return nil, fmt.Errorf("reference answer: %w", err)
		}
		if err := checkAnswer(r.answer(i), e); err != nil {
			st.wrong++
			failed[i] = true
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("%s query %d: %w", name, i, err)
			}
		}
	}
	if n == 0 {
		return st, nil
	}
	st.p99all = quantile(latencies(r.lat, failed), 0.99)
	var w50, w99 []float64
	for _, w := range windows(s.due, r.lat, failed) {
		w50, w99 = append(w50, w.p50), append(w99, w.p99)
	}
	st.p50us, st.p99us = median(w50), median(w99)
	st.tailP50us = median(w50[len(w50)/2:])
	// The generator's own lateness: a query the window held waited for the
	// server, not for the generator.
	var late []float64
	for i, d := range r.late {
		if !r.held[i] {
			late = append(late, float64(d)/1e3)
		}
	}
	if len(late) > 0 {
		late = sorted(late)
		st.lateP50us, st.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	}
	st.genShare = ratio(float64(r.busyNs), float64(r.wallNs))
	st.held = r.nHeld
	return st, nil
}

// measured runs one phase against a server and returns its stats. After
// the phase, with the server idle, it runs the next updatesPerPhase map
// updates: the update programme is spread over the serving half
// rather than timed in one burst, because on a shared 2-vCPU virtual
// machine a CPU's speed can drift by 1.4x over tens of seconds, and one
// burst would catch only one of its states.
func (b *bench) measured(srv *server, s *schedule) (*phaseStats, error) {
	st, err := measurePhase(srv, b.ref, s, &b.buf)
	if err != nil {
		return nil, err
	}
	if err := b.churn.run(updatesPerPhase); err != nil {
		return nil, fmt.Errorf("propagation: %w", err)
	}
	return st, nil
}

// updatesPerPhase is how many map updates run after each measured phase.
const updatesPerPhase = 15

// measurePhase runs one phase against a server and returns its stats, with
// the server's CPU and the namespace's UDP receive-buffer drops over it.
func measurePhase(srv *server, ref *reference, s *schedule, r *phaseResult) (*phaseStats, error) {
	c, err := dialUDP(srv.port)
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.drain()
	u0, err := udpCounters()
	if err != nil {
		return nil, err
	}
	cu0, cs0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	// Turning the collector off waits out any collection in flight; the
	// phase allocates nothing, so no collection can then pause the
	// generator.
	gc := debug.SetGCPercent(-1)
	runPhase(c, s, r)
	debug.SetGCPercent(gc)
	cu1, cs1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	u1, err := udpCounters()
	if err != nil {
		return nil, err
	}
	st, err := evaluate(s.name, ref, r)
	if err != nil {
		return nil, err
	}
	st.userS, st.sysS = cu1-cu0, cs1-cs0
	st.rcvbufDrops = u1["RcvbufErrors"] - u0["RcvbufErrors"]
	return st, nil
}

// bench bundles what one benchmark run needs.
type bench struct {
	o     options
	wl    workload
	in    *inputs
	ref   *reference
	pair  *pair
	churn *churner
	res   *result
	// buf is reused by every phase so timing never allocates.
	buf phaseResult
	// setups are the eumdns start-up times of this run.
	setups []float64
}

func runWorkload(wl workload, o options) (*result, error) {
	res := &result{}
	res.note("%s", hostLine(o.pinned))
	res.note("workload %s: seed %d, %d s measured, trace %d", wl.name, o.seed, o.seconds, o.trace)
	pr, err := newPublisher(wl.blocks)
	if err != nil {
		return nil, fmt.Errorf("publisher set-up: %w", err)
	}
	defer pr.close()
	in := newInputs(wl, pr.w)
	b := &bench{o: o, wl: wl, in: in, pair: pr, res: res, ref: &reference{sys: pr.pub, sn: pr.boot, in: in, seed: o.seed}}

	var rp *replay
	if o.trace == 1 {
		// Replayed first, while the publisher still holds the boot map
		// eumdns serves.
		if rp, err = b.replayHeavy(); err != nil {
			return nil, err
		}
	}
	runtime.GC() // the replica's set-up starts from a collected heap
	if err := pr.addReplica(); err != nil {
		return nil, fmt.Errorf("replica set-up: %w", err)
	}
	if b.churn, err = pr.churner(wl, o.seed, o.trace == 1); err != nil {
		return nil, err
	}
	serve, err := b.serving()
	if err != nil {
		return nil, err
	}
	if err := b.churn.run(updates); err != nil {
		return nil, fmt.Errorf("propagation: %w", err)
	}
	b.report(serve, b.churn.ups, rp)
	return res, nil
}

// servingRun is what the serving half measured.
type servingRun struct {
	light, heavy *phaseStats
	// rssMB is the peak resident set of the server that ran them.
	rssMB float64
	// Traced runs: the knee search, the untraced heavy phase
	// (trace.overhead's base) and the traced server's counters around the
	// heavy phase.
	ladder     []*phaseStats
	knee       float64
	plainHeavy *phaseStats
	scrape     scrapeDelta
}

// Phase lengths as shares of --seconds: the light and heavy phases, which
// fill an untraced run's measured time, one knee step of a traced run,
// and the unmeasured warm-up after each server start.
const (
	lightShare = 0.3
	heavyShare = 0.7
	kneeShare  = 0.2
	warmShare  = 0.03
)

func (b *bench) schedule(name string, rate, share float64) (*schedule, error) {
	s, err := b.in.newSchedule(b.o.seed, name, rate, float64(b.o.seconds)*share)
	if s != nil {
		s.name = name
	}
	return s, err
}

// start launches a fresh eumdns for one phase, records its set-up and
// warms it up.
func (b *bench) start(traced bool, tag string) (*server, error) {
	srv, err := b.launch(traced, tag)
	if err != nil {
		return nil, err
	}
	if err := b.warmUp(srv); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// launch starts a fresh eumdns and records its set-up: the time from exec
// to the first correct answer to a seed-chosen probe.
func (b *bench) launch(traced bool, tag string) (*server, error) {
	rng := rand.New(rand.NewSource(subSeed(b.o.seed, "probe-"+tag)))
	q := b.in.draw(rng, 1)[0]
	q.kind = ecs24
	probe, err := b.in.pack(nil, q, 0xbe7c)
	if err != nil {
		return nil, err
	}
	e := expectation{id: 0xbe7c, name: b.in.domains[q.domain], ecs: b.in.ecsPrefix(q)}
	if e.servers, err = b.ref.servers(q); err != nil {
		return nil, err
	}
	srv, err := startServer(b.o, b.wl, traced, tag, probe, func(w []byte) bool { return checkAnswer(w, e) == nil })
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, srv.setupS)
	return srv, nil
}

// warmUp sends a short, unmeasured phase at the light rate so the
// collection and page faults that follow a fresh start-up finish before
// any measured phase; users of a long-running server never see them.
func (b *bench) warmUp(srv *server) error {
	s, err := b.schedule("warmup", lightQPS, warmShare)
	if err != nil {
		return err
	}
	c, err := dialUDP(srv.port)
	if err != nil {
		return err
	}
	defer c.close()
	runPhase(c, s, &b.buf)
	return nil
}

// serve starts a fresh server and runs the given schedules against it
// in order, then stops it and returns its peak resident set (MiB). With
// traced, the server runs with its admin plane and gctrace, and sd
// receives its counters around the last schedule.
func (b *bench) serve(tag string, traced bool, sd *scrapeDelta, scheds ...*schedule) (out []*phaseStats, rssMB float64, err error) {
	srv, err := b.start(traced, tag)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		var herr error
		rssMB, herr = srv.hwmMB()
		srv.stop()
		if err == nil {
			err = herr
		}
	}()
	for i, s := range scheds {
		last := i == len(scheds)-1
		if traced && last {
			if err := sd.before(srv); err != nil {
				return nil, 0, err
			}
		}
		st, err := b.measured(srv, s)
		if err != nil {
			return nil, 0, err
		}
		if traced && last {
			if err := sd.after(srv); err != nil {
				return nil, 0, err
			}
		}
		out = append(out, st)
	}
	return out, 0, nil
}

// serving runs the light and heavy phases on one fresh server. An
// untraced run then times further start-ups, wl.setups in all with the
// first; a traced run instead searches the knee on another server, after
// measuring the heavy phase on an untraced server too, as
// trace.overhead's base.
func (b *bench) serving() (*servingRun, error) {
	light, err := b.schedule("light", lightQPS, lightShare)
	if err != nil {
		return nil, err
	}
	heavy, err := b.schedule("heavy", heavyQPS, heavyShare)
	if err != nil {
		return nil, err
	}
	traced := b.o.trace == 1
	sr := &servingRun{}
	if traced {
		st, _, err := b.serve("untraced", false, nil, heavy)
		if err != nil {
			return nil, err
		}
		sr.plainHeavy = st[0]
		sr.plainHeavy.name = "heavy-untraced"
	}
	st, rss, err := b.serve("serve", traced, &sr.scrape, light, heavy)
	if err != nil {
		return nil, err
	}
	sr.light, sr.heavy, sr.rssMB = st[0], st[1], rss
	if !traced {
		for i := 1; i < b.wl.setups; i++ {
			srv, err := b.launch(false, fmt.Sprintf("setup%d", i))
			if err != nil {
				return nil, err
			}
			srv.stop()
		}
		return sr, nil
	}
	srv, err := b.start(traced, "ladder")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	sr.knee, err = b.knee(srv, sr)
	return sr, err
}

// knee finds the highest ladder rate whose step passes (see passes) by
// bisection over the ladder, assuming a rate passes when a higher one
// does. Each step is long enough to take in the server's periodic
// collection stalls, which short steps miss and which decide whether the
// in-flight window fills and the tail latency passes. A failing rate is
// measured once more and fails only if that fails too: a single long
// stall is a coin toss at any rate, and one lost toss must not halve the
// knee. It returns 0 when a generator-bound step invalidates the run or no
// rate passes.
func (b *bench) knee(srv *server, sr *servingRun) (float64, error) {
	step := func(i, try int) (pass, valid bool, err error) {
		s, err := b.schedule(fmt.Sprintf("knee%.0f-%d", ladder[i], try), ladder[i], kneeShare)
		if err != nil {
			return false, false, err
		}
		st, err := b.measured(srv, s)
		if err != nil {
			return false, false, err
		}
		sr.ladder = append(sr.ladder, st)
		time.Sleep(100 * time.Millisecond) // let the server drain between steps
		return st.passes(), st.valid() == nil, nil
	}
	// Invariant: rates at lo and below pass (lo -1: none known to), rates
	// at hi and above fail (hi past the top: none known to).
	lo, hi := -1, len(ladder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pass := false
		for try := 1; try <= 2 && !pass; try++ {
			var valid bool
			var err error
			if pass, valid, err = step(mid, try); err != nil || !valid {
				return 0, err
			}
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, nil
	}
	return ladder[lo], nil
}
