package lb

import (
	"net"
	"sync"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
)

// spliceChunk bounds one backend→pipe splice; the default pipe holds
// 64 KiB, so a larger request just returns partial.
const spliceChunk = 256 << 10

// idleScanChunk bounds the idle/stall sweep per wake so a dense shard
// does not walk its whole table every 10ms.
const idleScanChunk = 256

// session is one relayed stream's state between reactor wakes: two fds,
// a kernel pipe holding in-flight bytes, and stall/idle stamps. It has
// no goroutine and no timer.
type session struct {
	id          uint64
	clientConn  net.Conn
	backendConn net.Conn
	cfd, bfd    int
	pos         int // index in shard.sessions, maintained across swap-removes

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

// shard owns a set of relay sessions and the reactor resources they
// share: one poller and one flight ring.
//
//smoothvet:confined owned by the relay reactor goroutine after New hands it off
type shard struct {
	eng    *Engine
	poller *poller

	//smoothvet:shared guards incoming only
	mu sync.Mutex
	//smoothvet:shared appended under mu by enqueue, drained by admit
	incoming []*session
	spare    []*session

	sessions []*session
	byFd     []*session
	idleCur  int

	// met and rec are this shard's obs slots and flight ring: recorded
	// into only by the reactor goroutine.
	met *obs.ShardMetrics
	rec *obs.FlightRecorder
}

func newShard(e *Engine, idx int) (*shard, error) {
	p, err := newPoller()
	if err != nil {
		return nil, err
	}
	return &shard{
		eng:    e,
		poller: p,
		byFd:   make([]*session, 1024),
		met:    e.met.reg.Shard(idx),
		rec:    e.recs[idx+1],
	}, nil
}

// enqueue hands a placed session to the shard; it reports false when the
// engine is closing and the session was not accepted.
func (sh *shard) enqueue(s *session) bool {
	sh.mu.Lock()
	if sh.eng.closing.Load() {
		sh.mu.Unlock()
		return false
	}
	sh.incoming = append(sh.incoming, s)
	sh.mu.Unlock()
	return true
}

// admit registers every queued session. Runs on the shard goroutine.
func (sh *shard) admit(now int64) {
	sh.mu.Lock()
	if len(sh.incoming) == 0 {
		sh.mu.Unlock()
		return
	}
	pend := sh.incoming
	sh.incoming = sh.spare[:0]
	sh.mu.Unlock()
	for i := range pend {
		sh.register(pend[i], now)
		pend[i] = nil
	}
	sh.spare = pend[:0]
}

// register starts the relay for one placed session: the reactor wires
// its fds into the pipe pair and the epoll set.
func (sh *shard) register(s *session, now int64) {
	sh.met.Observe(sh.eng.met.hAdmitWait, (now-s.enqueued)/1000)
	s.lastData = now
	if err := sh.startRelay(s, now); err != nil {
		sh.retire(s, err, now)
		return
	}
	sh.met.Inc(sh.eng.met.cRelayed)
	s.pos = len(sh.sessions)
	sh.sessions = append(sh.sessions, s)
}

func (sh *shard) lookupFd(fd int) *session {
	if fd < 0 || fd >= len(sh.byFd) {
		return nil
	}
	return sh.byFd[fd]
}

// mapFd points the shard's fd table at s, growing it as needed.
func (sh *shard) mapFd(fd int, s *session) {
	if fd >= len(sh.byFd) {
		grown := make([]*session, fd+fd/2+1)
		copy(grown, sh.byFd)
		sh.byFd = grown
	}
	sh.byFd[fd] = s
}

func (sh *shard) unmapFd(fd int, s *session) {
	if fd >= 0 && fd < len(sh.byFd) && sh.byFd[fd] == s {
		sh.byFd[fd] = nil
	}
}

// retire finishes a session: success when err is nil, else a relay
// failure. Runs on the shard goroutine. now is the caller's wake stamp;
// retire sits downstream of the noalloc relay path, so it derives
// Elapsed from the stamp instead of re-reading the wall clock.
func (sh *shard) retire(s *session, err error, now int64) {
	sh.closeRelay(s)
	if last := len(sh.sessions) - 1; last >= 0 && s.pos >= 0 && s.pos <= last && sh.sessions[s.pos] == s {
		sh.sessions[s.pos] = sh.sessions[last]
		sh.sessions[s.pos].pos = s.pos
		sh.sessions[last] = nil
		sh.sessions = sh.sessions[:last]
		if sh.idleCur > last {
			sh.idleCur = 0
		}
	}
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

// scanIdle sweeps up to idleScanChunk sessions for idle and stall
// timeouts, resuming where the last wake left off.
func (sh *shard) scanIdle(now int64) {
	idle := int64(sh.eng.cfg.IdleTimeout)
	stall := int64(sh.eng.cfg.StallTimeout)
	if (idle <= 0 && stall <= 0) || len(sh.sessions) == 0 {
		return
	}
	k := idleScanChunk
	if k > len(sh.sessions) {
		k = len(sh.sessions)
	}
	for ; k > 0; k-- {
		if sh.idleCur >= len(sh.sessions) {
			sh.idleCur = 0
		}
		if len(sh.sessions) == 0 {
			return
		}
		s := sh.sessions[sh.idleCur]
		if s.stalled && stall > 0 && now-s.stallStart > stall {
			sh.retire(s, errStallTimeout, now)
			continue
		}
		if !s.stalled && idle > 0 && now-s.lastData > idle {
			sh.retire(s, errIdleTimeout, now)
			continue
		}
		sh.idleCur++
	}
}

// drainIncoming aborts every queued-but-unregistered session; part of
// the platform shutdown paths.
func (sh *shard) drainIncoming(now int64) {
	sh.mu.Lock()
	pend := sh.incoming
	sh.incoming = nil
	sh.mu.Unlock()
	for _, s := range pend {
		sh.retire(s, errRelayShutdown, now)
	}
}
