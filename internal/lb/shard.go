package lb

import (
	"net"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
)

// spliceChunk bounds one backend→pipe splice; the default pipe holds
// 64 KiB, so a larger request just returns partial.
const spliceChunk = 256 << 10

// session is one relayed stream's state between reactor wakes: two fds,
// a kernel pipe holding in-flight bytes, and stall/idle stamps. It has
// no goroutine and no timer.
type session struct {
	id          uint64
	clientConn  net.Conn
	backendConn net.Conn
	cfd, bfd    int
	reactor.Link

	backend    *backend
	backendIdx int
	hello      netstream.Hello
	accept     netstream.Accept
	retries    int
	enqueued   int64 // engine-monotonic nanos at front-door admit
	start      time.Time

	// Relay state, owned by the shard after registration.
	pipeR, pipeW int
	pipeFill     int  // bytes parked in the pipe (disambiguates EAGAIN)
	ended        bool // backend EOF seen; retire once the pipe drains
	anchored     bool // first relayed byte recorded (EvFirstWrite)
	clientGone   bool // client hung up with nothing undelivered; backend decides
	stalled      bool
	stallStart   int64
	lastData     int64
	bytes        int64
}

// shard owns a set of relay sessions: a reactor core and one flight
// ring. The core drives it through the reactor.Handler methods below.
//
//smoothvet:confined owned by the relay reactor goroutine after New hands it off
type shard struct {
	reactor.Core[*session]
	eng *Engine

	// met and rec are this shard's obs slots and flight ring: recorded
	// into only by the reactor goroutine.
	met *obs.ShardMetrics
	rec *obs.FlightRecorder
}

func newShard(e *Engine, idx int) (*shard, error) {
	sh := &shard{
		eng: e,
		met: e.met.reg.Shard(idx),
		rec: e.recs[idx+1],
	}
	if err := sh.Open(&e.closing, e.base, sh.met, e.met.gActive); err != nil {
		return nil, err
	}
	return sh, nil
}

// run converts the shard to its reactor handler once and runs the core.
func (sh *shard) run() {
	defer sh.eng.loopWG.Done()
	sh.Run(sh)
}

// Admit starts the relay for one placed session: the reactor wires its
// fds into the pipe pair and the epoll set.
func (sh *shard) Admit(s *session, now int64) bool {
	sh.met.Observe(sh.eng.met.hAdmitWait, (now-s.enqueued)/1000)
	s.lastData = now
	if err := sh.startRelay(s); err != nil {
		sh.retire(s, err, now)
		return false
	}
	sh.met.Inc(sh.eng.met.cRelayed)
	return true
}

// Sweep retires a session whose client write stalled or whose backend
// went quiet past its timeout.
func (sh *shard) Sweep(s *session, now int64) {
	idle := int64(sh.eng.cfg.IdleTimeout)
	stall := int64(sh.eng.cfg.StallTimeout)
	if s.stalled && stall > 0 && now-s.stallStart > stall {
		sh.retire(s, errStallTimeout, now)
	} else if !s.stalled && idle > 0 && now-s.lastData > idle {
		sh.retire(s, errIdleTimeout, now)
	}
}

// Abort fails a live or queued session at engine close.
func (sh *shard) Abort(s *session, now int64) { sh.retire(s, errRelayShutdown, now) }

// retire finishes a session: success when err is nil, else a relay
// failure. Runs on the shard goroutine. now is the caller's wake stamp;
// retire sits downstream of the noalloc relay path, so it derives
// Elapsed from the stamp instead of re-reading the wall clock.
func (sh *shard) retire(s *session, err error, now int64) {
	sh.closeRelay(s)
	sh.Remove(s)
	if s.backendConn != nil {
		_ = s.backendConn.Close()
	}
	_ = s.clientConn.Close()
	if s.backend != nil {
		s.backend.active.Add(-1)
	}
	m := sh.eng.met
	if err == nil {
		sh.met.Inc(m.cCompleted)
		sh.rec.Record(now, obs.EvRetire, s.id, s.bytes)
	} else {
		sh.met.Inc(m.cFailed)
		sh.rec.Record(now, obs.EvError, s.id, int64(s.backendIdx))
	}
	sh.eng.sessionDone(s, err, now)
}
