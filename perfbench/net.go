package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/lb"
	"repro/internal/loadgen"
	"repro/internal/netstream"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// shape sizes one network workload.
type shape struct {
	name     string
	frames   int           // clip length
	step     time.Duration // serve step
	sessions int           // sessions per wave
	viaLB    bool          // loadgen → lb → serve instead of loadgen → serve
}

// delay is the smoothing delay every session requests, in steps: with one
// delay all sessions negotiate the same B = R·D and share one cohort plan.
const delay = 8

func streamShape(toy bool) shape {
	if toy {
		return shape{"stream", 60, 2 * time.Millisecond, 20, false}
	}
	return shape{"stream", 1000, 10 * time.Millisecond, 600, false}
}

func fleetShape(toy bool) shape {
	if toy {
		return shape{"fleet", 60, 2 * time.Millisecond, 10, true}
	}
	return shape{"fleet", 1000, 10 * time.Millisecond, 300, true}
}

func churnShape(toy bool) shape {
	if toy {
		return shape{"churn", 24, 2 * time.Millisecond, 60, true}
	}
	return shape{"churn", 24, 2 * time.Millisecond, 3000, true}
}

// rateFor returns the link rate R: 1.1× the clip's average bytes per
// frame, rounded up.
func rateFor(clip *trace.Clip) int {
	var total int
	for _, f := range clip.Frames {
		total += f.Size
	}
	return int(math.Ceil(1.1 * float64(total) / float64(len(clip.Frames))))
}

// reference is what every completed session must reproduce.
type reference struct {
	digest                    uint64
	played, incomplete, steps int
}

// acceptor is the accept-then-Handle loop smoothd and smoothlb run: each
// connection is handed to Handle on its own goroutine. A rejected
// connection is closed by Handle and shows up as a failed session at the
// client.
type acceptor struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startAcceptor(handle func(net.Conn) error) (*acceptor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &acceptor{ln: ln}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			a.wg.Add(1)
			go func(c net.Conn) {
				defer a.wg.Done()
				_ = handle(c) // the client counts the failure
			}(c)
		}
	}()
	return a, nil
}

func (a *acceptor) addr() string { return a.ln.Addr().String() }

func (a *acceptor) close() {
	_ = a.ln.Close() // the pending Accept fails and the loop exits
	a.wg.Wait()
}

// newServe builds a serving engine with one shard behind its own
// acceptor; traced connections are timed through tr.
func newServe(clip *trace.Clip, rate int, step time.Duration, tr *tracer) (*serve.Engine, *acceptor, error) {
	eng, err := serve.New(clip, trace.PaperWeights(), serve.Config{
		Rate: rate, Shards: 1, StepDuration: step, Policy: drop.Greedy,
		OnSessionDone: func(s serve.SessionStats, _ error) {
			if tr != nil {
				tr.serveSessionDone(s.Remote, s.Elapsed)
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	acc, err := startAcceptor(func(c net.Conn) error {
		if tr == nil || !tr.on.Load() {
			return eng.Handle(c)
		}
		key := c.RemoteAddr().String()
		wc := tr.wrapServe(c, key)
		return tr.call("serve.handle", key, func() error { return eng.Handle(wc) })
	})
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	return eng, acc, nil
}

// referenceSession streams the clip once to a lone client on an idle
// engine with a fast clock (the digest and playout counts are in model
// steps, so the clock does not change them) and checks its playout
// against core.Simulate for the same B = R·D, R and D.
func referenceSession(clip *trace.Clip, rate int) (reference, error) {
	st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
	if err != nil {
		return reference{}, err
	}
	sim, err := core.Simulate(st, core.Config{ServerBuffer: rate * delay, Rate: rate, Delay: delay, Policy: drop.Greedy})
	if err != nil {
		return reference{}, err
	}
	var want reference
	for _, o := range sim.Outcomes {
		if o.Played() {
			want.played++
		}
	}
	want.incomplete = sim.DroppedAt(sched.SiteClient)
	eng, acc, err := newServe(clip, rate, time.Microsecond, nil)
	if err != nil {
		return reference{}, err
	}
	defer eng.Close()
	defer acc.close()
	var got loadgen.SessionStats
	lg, err := loadgen.New(loadgen.Config{
		Addrs: []string{acc.addr()}, Shards: 1, Delay: delay, Dialers: 1, Digest: true,
		OnSessionDone: func(s loadgen.SessionStats) { got = s },
	})
	if err != nil {
		return reference{}, err
	}
	defer lg.Close()
	rep, err := lg.Run(1)
	if err != nil {
		return reference{}, err
	}
	if rep.Completed != 1 {
		return reference{}, fmt.Errorf("reference session failed: %v", got.Err)
	}
	if got.Played != want.played || got.Incomplete != want.incomplete {
		return reference{}, fmt.Errorf("reference session played %d, incomplete %d; core.Simulate played %d, incomplete %d",
			got.Played, got.Incomplete, want.played, want.incomplete)
	}
	want.digest, want.steps = got.Digest, got.Steps
	return want, nil
}

// checker verifies every finished session against the reference.
type checker struct {
	want reference
	tr   *tracer

	mu       sync.Mutex
	bad      int
	firstBad string
}

func (c *checker) done(s loadgen.SessionStats) {
	if c.tr.on.Load() {
		now := time.Now()
		c.tr.observe("loadgen.session", s.Elapsed)
		c.tr.add(span{Name: "loadgen.session", Start: c.tr.since(now.Add(-s.Elapsed)), End: c.tr.since(now),
			Parent: int(c.tr.root.Load()), Key: fmt.Sprintf("idx:%d", s.Index)})
	}
	if s.Stage != "" {
		return // counted as a failure by the wave report
	}
	if s.Digest == c.want.digest && s.Played == c.want.played && s.Incomplete == c.want.incomplete && s.Steps == c.want.steps {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bad++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf("session %d: digest %x played %d incomplete %d steps %d; reference %x, %d, %d, %d",
			s.Index, s.Digest, s.Played, s.Incomplete, s.Steps, c.want.digest, c.want.played, c.want.incomplete, c.want.steps)
	}
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bad > 0 {
		return fmt.Errorf("%d sessions differ from the reference; first: %s", c.bad, c.firstBad)
	}
	return nil
}

// stack is one workload's engines: loadgen → [lb →] serve.
type stack struct {
	sh    shape
	rate  int
	tr    *tracer
	chk   *checker
	srv   *serve.Engine
	srvA  *acceptor
	lbe   *lb.Engine
	lbA   *acceptor
	lg    *loadgen.Engine
	front string // the address loadgen dials
}

// clipFor generates the workload's clip from the run's seed.
func clipFor(o options, sh shape) (*trace.Clip, error) {
	gen := trace.DefaultGenConfig()
	gen.Frames = sh.frames
	gen.Seed = o.seed
	return trace.Generate(gen)
}

// buildStack is the timed set-up: it generates the clip, starts the
// engines and has the serving engine build its cohort plan.
func buildStack(o options, sh shape, tr *tracer, ref reference) (*stack, error) {
	clip, err := clipFor(o, sh)
	if err != nil {
		return nil, err
	}
	s := &stack{sh: sh, rate: rateFor(clip), tr: tr}
	s.chk = &checker{want: ref, tr: tr}
	s.srv, s.srvA, err = newServe(clip, s.rate, sh.step, tr)
	if err != nil {
		return nil, err
	}
	s.front = s.srvA.addr()
	nproc := runtime.GOMAXPROCS(0)
	if sh.viaLB {
		s.lbe, err = lb.New(lb.Config{Backends: []string{s.srvA.addr()}, Shards: 1, PlaceWorkers: nproc})
		if err != nil {
			s.close()
			return nil, err
		}
		s.lbA, err = startAcceptor(func(c net.Conn) error {
			if !tr.on.Load() {
				return s.lbe.Handle(c)
			}
			return tr.call("lb.handle", c.RemoteAddr().String(), func() error { return s.lbe.Handle(c) })
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.front = s.lbA.addr()
	}
	s.lg, err = loadgen.New(loadgen.Config{
		Addrs: []string{s.front}, Shards: 1, Delay: delay, Dialers: nproc, Digest: true,
		OnSessionDone: s.chk.done,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if err := buildCohort(s.srv); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// buildCohort performs one Hello/Accept handshake with the serving
// engine over an in-process pipe and hangs up, so the engine builds the
// cohort plan every session of the workload will share. The pipe keeps
// socket and scheduler latency out of the timed set-up; the session it
// registers fails on its first write and is retired.
func buildCohort(eng *serve.Engine) error {
	client, server := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	go func() { errc <- eng.Handle(server) }()
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	if err := netstream.WriteHello(client, netstream.Hello{DesiredDelay: uint32(delay)}); err != nil {
		return err
	}
	msg, err := netstream.ReadMsg(client)
	if err != nil {
		return fmt.Errorf("cohort handshake: %w", err)
	}
	if msg.Accept == nil {
		return errors.New("cohort handshake: no accept")
	}
	return <-errc
}

func (s *stack) close() {
	if s.lg != nil {
		s.lg.Close()
	}
	if s.lbA != nil {
		s.lbA.close()
	}
	if s.lbe != nil {
		s.lbe.Close()
	}
	if s.srvA != nil {
		s.srvA.close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// settle waits until the serving side has retired every session of the
// last wave, so per-wave accounting is complete.
func (s *stack) settle() {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.srv.ActiveSessions() == 0 && (s.lbe == nil || s.lbe.Active() == 0) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// phase aggregates the waves of one measured half of a run.
type phase struct {
	waves                         int
	waveSecs                      []float64
	waveUnits                     []waveUnit
	waveLines                     []string
	wall, cpu, waveTime           time.Duration
	lag, hs, dial                 *stats.LogHistogram
	sessions, completed, failed   int64
	dialF, hsF, midF, msgs, bytes int64
	gc                            gcStats
	srvBefore, srvAfter           obsDoc
	lbBefore, lbAfter             obsDoc
	tickBefore, tickAfter         *stats.LogHistogram
	admitBefore, admitAfter       *stats.LogHistogram
	stallBefore, stallAfter       *stats.LogHistogram
	pendingPeak                   int64
	writes, writeBytes            int64
}

// waveUnit is one timed wave's cost.
type waveUnit struct {
	cpu, wall time.Duration
	completed int64
}

// perOp returns the median over waves of cost per operation in µs: wave
// CPU time, or wave wall time when wall is set, over the wave's completed
// sessions times opsPerSession.
func perOp(units []waveUnit, wall bool, opsPerSession int) float64 {
	var xs []float64
	for _, u := range units {
		d := u.cpu
		if wall {
			d = u.wall
		}
		if n := u.completed * int64(opsPerSession); n > 0 {
			xs = append(xs, float64(d)/1e3/float64(n))
		}
	}
	return median(xs)
}

// measure runs waves until the budget is spent (at least one).
func (s *stack) measure(budget time.Duration, traced bool) (*phase, error) {
	p := &phase{
		lag:  stats.NewLogHistogram(stats.DefaultLogHistSubBits),
		hs:   stats.NewLogHistogram(stats.DefaultLogHistSubBits),
		dial: stats.NewLogHistogram(stats.DefaultLogHistSubBits),
	}
	var err error
	if err = s.readObs(p, true); err != nil {
		return nil, err
	}
	w0, b0 := s.tr.writeTotals()
	s.tr.on.Store(traced)
	stopSampler := s.samplePending(p, traced)
	g0, c0, start := readGC(), cpuTime(), time.Now()
	deadline := start.Add(budget)
	for p.waves == 0 || time.Now().Before(deadline) {
		root := -1
		if traced {
			root = s.tr.begin("loadgen.wave")
		}
		t0, wc0 := time.Now(), cpuTime()
		rep, err := s.lg.Run(s.sh.sessions)
		d, wcpu := time.Since(t0), cpuTime()-wc0
		if traced {
			s.tr.end(root)
		}
		if err != nil {
			stopSampler()
			s.tr.on.Store(false)
			return nil, err
		}
		s.settle()
		p.waves++
		p.waveSecs = append(p.waveSecs, d.Seconds())
		p.waveUnits = append(p.waveUnits, waveUnit{cpu: wcpu, wall: d, completed: int64(rep.Completed)})
		p.waveLines = append(p.waveLines, joinf("# wave", "n", p.waves, "traced", traced, "sessions", rep.Sessions,
			"failed", rep.Failed, "msgs", rep.Messages, "wave_s", fmt.Sprintf("%.3f", d.Seconds()),
			"lag_p50_ms", quantile(rep.Lag, 0.5, 1e3), "lag_p99_ms", quantile(rep.Lag, 0.99, 1e3),
			"hs_p50_ms", quantile(rep.Handshake, 0.5, 1e3), "hs_p99_ms", quantile(rep.Handshake, 0.99, 1e3),
			"cpu_us_per_msg", fmt.Sprintf("%.3f", float64(wcpu/time.Nanosecond)/1e3/float64(max(rep.Messages, 1)))))
		p.waveTime += d
		p.lag.Merge(rep.Lag)
		p.hs.Merge(rep.Handshake)
		p.dial.Merge(rep.Dial)
		p.sessions += int64(rep.Sessions)
		p.completed += int64(rep.Completed)
		p.failed += int64(rep.Failed)
		p.dialF += int64(rep.DialFailed)
		p.hsF += int64(rep.HandshakeFailed)
		p.midF += int64(rep.MidStreamFailed)
		p.msgs += rep.Messages
		p.bytes += rep.Bytes
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-c0
	g1 := readGC()
	p.gc = gcStats{g1.cycles - g0.cycles, g1.pauseNs - g0.pauseNs, g1.alloc - g0.alloc, g1.mallocs - g0.mallocs}
	stopSampler()
	s.tr.on.Store(false)
	w1, b1 := s.tr.writeTotals()
	p.writes, p.writeBytes = w1-w0, b1-b0
	if err = s.readObs(p, false); err != nil {
		return nil, err
	}
	return p, s.chk.err()
}

// readObs scrapes the serve and lb registries at a phase boundary.
func (s *stack) readObs(p *phase, before bool) error {
	doc, err := scrape(s.srv.Obs())
	if err != nil {
		return err
	}
	tick := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	s.srv.Obs().MergedHist(s.srv.StepDurationHist(), tick)
	if before {
		p.srvBefore, p.tickBefore = doc, tick
	} else {
		p.srvAfter, p.tickAfter = doc, tick
	}
	if s.lbe == nil {
		return nil
	}
	ldoc, err := scrape(s.lbe.Obs())
	if err != nil {
		return err
	}
	admit, err := histOf(s.lbe.Obs(), ldoc, "lb_admit_wait_us")
	if err != nil {
		return err
	}
	stall, err := histOf(s.lbe.Obs(), ldoc, "lb_relay_stall_us")
	if err != nil {
		return err
	}
	if before {
		p.lbBefore, p.admitBefore, p.stallBefore = ldoc, admit, stall
	} else {
		p.lbAfter, p.admitAfter, p.stallAfter = ldoc, admit, stall
	}
	return nil
}

// samplePending polls lb_sessions_pending during a traced phase and keeps
// its peak; the returned func stops the sampler and waits for it.
func (s *stack) samplePending(p *phase, traced bool) func() {
	if !traced || s.lbe == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				if doc, err := scrape(s.lbe.Obs()); err == nil {
					if v := int64(doc.scalars["lb_sessions_pending"]); v > p.pendingPeak {
						p.pendingPeak = v
					}
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}

// runNet runs one network workload: set-up (25 times; setup_s is the
// median), one warm-up wave excluded from every metric, then timed
// waves of sh.sessions concurrent sessions until the budget is spent.
func runNet(o options, sh shape) (*outcome, error) {
	out := &outcome{e2e: values{}, tr: newTracer()}
	reps := 25 // set-up takes milliseconds and its wake-ups jitter; 25 keep the median steady
	if o.toy {
		reps = 1
	}
	// The reference is the benchmark's oracle, not the system's set-up,
	// so it is computed before set-up is timed.
	clip, err := clipFor(o, sh)
	if err != nil {
		return nil, err
	}
	ref, err := referenceSession(clip, rateFor(clip))
	if err != nil {
		return nil, err
	}
	if o.corruptRef {
		ref.digest ^= 1
	}
	var setups []float64
	var s *stack
	for r := 0; r < reps; r++ {
		// Every set-up starts from a collected heap, so a collection the
		// previous set-up's garbage made due does not land in this one.
		runtime.GC()
		start := time.Now()
		st, err := buildStack(o, sh, out.tr, ref)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if r < reps-1 {
			st.close()
		} else {
			s = st
		}
	}
	defer s.close()
	out.e2e["setup_s"] = median(setups)
	out.lines = append(out.lines, setupLine(setups))

	warm, err := s.lg.Run(sh.sessions)
	if err != nil {
		return nil, err
	}
	s.settle()
	if err := s.chk.err(); err != nil {
		return nil, err
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	p, err := s.measure(budget, false)
	if err != nil {
		return nil, err
	}
	netE2E(out.e2e, sh, ref.steps, p)
	out.attempted, out.failed = p.sessions, p.failed
	if o.trace {
		tp, err := s.measure(budget, true)
		if err != nil {
			return nil, err
		}
		out.traced = values{}
		netE2E(out.traced, sh, ref.steps, tp)
		out.layer = netLayers(s, tp)
		out.attempted += tp.sessions
		out.failed += tp.failed
		p.waveLines = append(p.waveLines, tp.waveLines...)
		out.layer["trace.overhead_pct"] = overheadPct(out.e2e["cpu_us_per_msg"], out.traced["cpu_us_per_msg"])
	}
	if err := s.finalChecks(); err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.lines = append(out.lines, p.waveLines...)
	out.lines = append(out.lines,
		joinf("# "+sh.name+":", "frames", sh.frames, "step", sh.step, "sessions_per_wave", sh.sessions,
			"via_lb", sh.viaLB, "delay", delay, "rate", s.rate, "waves", p.waves,
			"warmup_lag_p99_ms", quantile(warm.Lag, 0.99, 1e3)),
		joinf("# check:", "reference_digest", fmt.Sprintf("%x", s.chk.want.digest),
			"played", s.chk.want.played, "incomplete", s.chk.want.incomplete, "sessions_checked", p.completed),
	)
	return out, nil
}

// finalChecks runs once the engines are idle: lb must never have fallen
// back from splice, and lb's histogram slots read by position must agree
// with its registry's own rendering. (serve's step histogram is read
// through StepDurationHist and keeps ticking while idle.)
func (s *stack) finalChecks() error {
	if s.lbe == nil {
		return nil
	}
	if n := s.lbe.SpliceFallbacks(); n != 0 {
		return fmt.Errorf("lb: %d splice fallbacks", n)
	}
	return verifyHists(s.lbe.Obs(), "lb_admit_wait_us", "lb_relay_stall_us")
}

func netE2E(v values, sh shape, steps int, p *phase) {
	v["lag_p50_ms"] = quantile(p.lag, 0.50, 1e3)
	v["lag_p99_ms"] = quantile(p.lag, 0.99, 1e3)
	v["lag_p999_ms"] = quantile(p.lag, 0.999, 1e3)
	v["lag_samples"] = float64(p.lag.Count())
	slack := int64(delay) * int64(sh.step/time.Microsecond)
	v["late_pct"] = 100 * fractionAbove(p.lag, slack)
	v["failed_pct"] = 100 * float64(p.failed) / float64(p.sessions)
	if p.msgs > 0 {
		v["cpu_us_per_msg"] = float64(p.cpu/time.Microsecond) / float64(p.msgs)
	}
	// An operation is one session-step (a viewer's step of stream) on the
	// streaming workloads, whose cost is paced per step whatever the
	// clip's message count, and one session on churn, whose cost is
	// set-up.
	ops := steps
	if sh.name == "churn" {
		ops = 1
	}
	v["cpu_us_per_op"] = perOp(p.waveUnits, false, ops)
	v["wall_us_per_op"] = perOp(p.waveUnits, true, ops)
	if sh.name == "churn" {
		v["sessions_per_s"] = float64(p.completed) / p.waveTime.Seconds()
		v["handshake_p50_ms"] = quantile(p.hs, 0.50, 1e3)
		v["handshake_p99_ms"] = quantile(p.hs, 0.99, 1e3)
	}
}

func netLayers(s *stack, p *phase) values {
	l := values{}
	tick := histDelta(p.tickBefore, p.tickAfter)
	l["serve.tick_us_p50"] = quantile(tick, 0.50, 1)
	l["serve.tick_us_p99"] = quantile(tick, 0.99, 1)
	l["serve.tick_busy_pct"] = 100 * float64(tick.Sum()) / float64(p.wall/time.Microsecond) / float64(s.srv.Shards())
	write := s.tr.hist("serve.write")
	l["serve.write_us_p50"] = quantile(write, 0.50, 1)
	l["serve.write_us_p99"] = quantile(write, 0.99, 1)
	l["serve.writes"] = float64(p.writes)
	l["serve.write_bytes"] = float64(p.writeBytes)
	handle := s.tr.hist("serve.handle")
	l["serve.handle_us_p50"] = quantile(handle, 0.50, 1)
	l["serve.handle_us_p99"] = quantile(handle, 0.99, 1)
	hits := delta(p.srvBefore, p.srvAfter, "serve_cohort_hits_total")
	miss := delta(p.srvBefore, p.srvAfter, "serve_cohort_misses_total")
	if hits+miss > 0 {
		l["serve.cohort_hit_pct"] = 100 * hits / (hits + miss)
	}
	l["serve.rejected"] = delta(p.srvBefore, p.srvAfter, "serve_sessions_rejected_total")
	l["serve.failed"] = delta(p.srvBefore, p.srvAfter, "serve_sessions_failed_total")
	l["serve.deadline_expiries"] = delta(p.srvBefore, p.srvAfter, "serve_write_deadline_expiries_total")

	if s.lbe != nil {
		l["lb.relay_stalls"] = delta(p.lbBefore, p.lbAfter, "lb_relay_stalls_total")
		l["lb.relay_stall_us_p99"] = quantile(histDelta(p.stallBefore, p.stallAfter), 0.99, 1)
		l["lb.splice_fallbacks"] = delta(p.lbBefore, p.lbAfter, "lb_splice_fallback_total")
		lh := s.tr.hist("lb.handle")
		l["lb.handle_us_p50"] = quantile(lh, 0.50, 1)
		l["lb.handle_us_p99"] = quantile(lh, 0.99, 1)
		admit := histDelta(p.admitBefore, p.admitAfter)
		l["lb.admit_wait_us_p50"] = quantile(admit, 0.50, 1)
		l["lb.admit_wait_us_p99"] = quantile(admit, 0.99, 1)
		l["lb.pending_peak"] = float64(p.pendingPeak)
		if acc := delta(p.lbBefore, p.lbAfter, "lb_sessions_accepted_total"); acc > 0 {
			l["lb.placed_pct"] = 100 * delta(p.lbBefore, p.lbAfter, "lb_placements_total") / acc
		}
		l["lb.replacements"] = delta(p.lbBefore, p.lbAfter, "lb_replacements_total")
		l["lb.placement_failures"] = delta(p.lbBefore, p.lbAfter, "lb_placement_failures_total")
	}

	l["loadgen.dial_us_p50"] = quantile(p.dial, 0.50, 1)
	l["loadgen.dial_us_p99"] = quantile(p.dial, 0.99, 1)
	l["loadgen.wave_s"] = median(p.waveSecs)
	sess := s.tr.hist("loadgen.session")
	l["loadgen.session_ms_p50"] = quantile(sess, 0.50, 1e3)
	l["loadgen.session_ms_p99"] = quantile(sess, 0.99, 1e3)
	l["loadgen.msgs"] = float64(p.msgs)
	l["loadgen.payload_bytes"] = float64(p.bytes)
	l["loadgen.dial_failed"] = float64(p.dialF)
	l["loadgen.handshake_failed"] = float64(p.hsF)
	l["loadgen.midstream_failed"] = float64(p.midF)
	if p.msgs > 0 {
		l["netstream.wire_bytes_per_msg"] = float64(p.writeBytes) / float64(p.msgs)
	}
	if p.writes > 0 {
		l["netstream.msgs_per_write"] = float64(p.msgs) / float64(p.writes)
	}
	l["runtime.gc_cycles"] = float64(p.gc.cycles) / float64(p.waves)
	l["runtime.gc_pause_ms"] = float64(p.gc.pauseNs) / 1e6 / float64(p.waves)
	return l
}
