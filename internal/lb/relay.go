package lb

import (
	"fmt"
	"net"
	"syscall"

	"repro/internal/obs"
	"repro/internal/reactor"
)

// backendEvents arms a backend fd for readability and peer hangup.
const backendEvents = reactor.In | reactor.RdHup

// Ready routes one epoll event: client-fd events resume a stalled write
// or notice a hangup; backend-fd events pump the relay.
//
//smoothvet:noalloc
func (sh *shard) Ready(s *session, fd int, events uint32, now int64) {
	if fd == s.cfd {
		if s.stalled {
			s.stalled = false
			sh.met.Observe(sh.eng.met.hStall, (now-s.stallStart)/1000)
			if err := sh.Mod(s.cfd, reactor.RdHup); err != nil {
				sh.retire(s, err, now)
				return
			}
			// The backend fd left the epoll set at stall time; bytes it
			// buffered meanwhile surface level-triggered once re-added.
			if err := sh.Add(s.bfd, s, backendEvents); err != nil {
				sh.retire(s, err, now)
				return
			}
			sh.relay(s, now)
			return
		}
		if events&(reactor.RdHup|reactor.Hup|reactor.Err) != 0 {
			sh.onClientHup(s, now)
		}
		return
	}
	sh.relay(s, now)
}

// onClientHup classifies a client hangup. Undelivered bytes parked in
// the pipe mean the client abandoned mid-stream: fail the
// session. With nothing undelivered the verdict belongs to the backend:
// its EOF means the client consumed the whole stream and simply closed
// first (the two FINs race through separate sockets, which is not a
// failure), while further payload is undeliverable. The session lingers
// on backend events until one of those arrives; the idle sweep bounds
// the wait. The client fd leaves the epoll set here so its level-
// triggered HUP stops re-firing every wake.
//
//smoothvet:noalloc
func (sh *shard) onClientHup(s *session, now int64) {
	if s.clientGone {
		return
	}
	if s.pipeFill > 0 {
		sh.retire(s, errClientGone, now)
		return
	}
	s.clientGone = true
	_ = sh.Del(s.cfd, s)
	// The backend's EOF may already be queued on its socket: resolve
	// immediately when it is.
	sh.finishClientGone(s, now)
}

// finishClientGone pumps the backend of a client-gone session to a
// verdict: payload fails it, EOF completes it, EAGAIN waits for the next
// backend event.
//
//smoothvet:noalloc
func (sh *shard) finishClientGone(s *session, now int64) {
	for {
		n, err := reactor.Splice(s.bfd, s.pipeW, spliceChunk)
		if n > 0 {
			sh.retire(s, errClientGone, now)
			return
		}
		if err == nil {
			if s.ended || s.bytes > 0 {
				sh.retire(s, nil, now)
			} else {
				sh.retire(s, errClientGone, now)
			}
			return
		}
		if en, ok := err.(syscall.Errno); ok {
			if en == syscall.EAGAIN {
				return
			}
			if en == syscall.EINTR {
				continue
			}
		}
		sh.retireRelayErr(s, err, now)
		return
	}
}

// startRelay wires a placed session into the reactor: a pipe pair for
// the splice path, both fds into the epoll set. Runs on the shard
// goroutine.
func (sh *shard) startRelay(s *session) error {
	ctc, ok := s.clientConn.(*net.TCPConn)
	if !ok {
		return fmt.Errorf("lb: client %T is not a TCP connection", s.clientConn)
	}
	btc, ok := s.backendConn.(*net.TCPConn)
	if !ok {
		return fmt.Errorf("lb: backend conn %T is not a TCP connection", s.backendConn)
	}
	cfd, err := reactor.ConnFd(ctc)
	if err != nil {
		return err
	}
	bfd, err := reactor.ConnFd(btc)
	if err != nil {
		return err
	}
	pipeR, pipeW, err := reactor.Pipe()
	if err != nil {
		return fmt.Errorf("lb: pipe2: %w", err)
	}
	s.cfd, s.bfd = cfd, bfd
	s.pipeR, s.pipeW = pipeR, pipeW
	if err := sh.Add(bfd, s, backendEvents); err != nil {
		return fmt.Errorf("lb: epoll add backend: %w", err)
	}
	// The client side is watched for hangup only: the relay never reads
	// the client.
	if err := sh.Add(cfd, s, reactor.RdHup); err != nil {
		return fmt.Errorf("lb: epoll add client: %w", err)
	}
	// No immediate relay: epoll is level-triggered, so bytes the backend
	// sent while the session sat in the queue surface on the next wait.
	return nil
}

// closeRelay releases a session's reactor resources: epoll entries, the
// fd table, the pipe pair.
func (sh *shard) closeRelay(s *session) {
	if s.bfd >= 0 {
		_ = sh.Del(s.bfd, s)
		s.bfd = -1
	}
	if s.cfd >= 0 {
		_ = sh.Del(s.cfd, s)
		s.cfd = -1
	}
	if s.pipeR >= 0 {
		_ = syscall.Close(s.pipeR)
		_ = syscall.Close(s.pipeW)
		s.pipeR, s.pipeW = -1, -1
	}
}

// relay is the steady-state hot path: drain the pipe into the client,
// refill it from the backend, entirely kernel-to-kernel. pipeFill tracks
// the bytes parked in the pipe, which disambiguates EAGAIN (empty source
// vs full sink) without a peek syscall.
//
//smoothvet:noalloc
func (sh *shard) relay(s *session, now int64) {
	if s.clientGone {
		sh.finishClientGone(s, now)
		return
	}
	for {
		for s.pipeFill > 0 {
			n, err := reactor.Splice(s.pipeR, s.cfd, s.pipeFill)
			if n > 0 {
				s.pipeFill -= int(n)
				s.bytes += n
				continue
			}
			if en, ok := err.(syscall.Errno); ok {
				if en == syscall.EAGAIN {
					// The client's socket buffer is full: park on a
					// one-shot EPOLLOUT.
					sh.stall(s, now)
					return
				}
				if en == syscall.EINTR {
					continue
				}
			}
			sh.retireRelayErr(s, err, now)
			return
		}
		if s.ended {
			sh.retire(s, nil, now)
			return
		}
		n, err := reactor.Splice(s.bfd, s.pipeW, spliceChunk)
		if n > 0 {
			s.pipeFill += int(n)
			s.lastData = now
			if !s.anchored {
				s.anchored = true
				sh.rec.Record(now, obs.EvFirstWrite, s.id, int64(s.backendIdx))
			}
			continue
		}
		if err == nil {
			// Backend EOF: flush whatever the pipe still holds, then
			// retire clean on the next loop.
			s.ended = true
			continue
		}
		if en, ok := err.(syscall.Errno); ok {
			switch en {
			case syscall.EAGAIN:
				return
			case syscall.EINTR:
				continue
			}
		}
		sh.retireRelayErr(s, err, now)
		return
	}
}

// retireRelayErr retires a session on a failed splice. EINVAL and ENOSYS
// mean these fds cannot splice at all (an exotic socket type); there is no
// other relay path, so the session fails with that error and is counted
// as a splice fallback.
func (sh *shard) retireRelayErr(s *session, err error, now int64) {
	if err == syscall.EINVAL || err == syscall.ENOSYS {
		sh.met.Inc(sh.eng.met.cFallback)
		sh.eng.fallbacks.Add(1)
	}
	sh.retire(s, err, now)
}

// stall parks a session on client writability. The backend fd leaves the
// epoll set for the duration: its level-triggered readability would
// otherwise spin the reactor awake (and, via relay, reset the stall
// clock) the whole time the client is parked. Del also unroutes it, so
// a backend event already harvested in this wake's batch is dropped
// instead of re-entering relay, which would re-stall and reset the stall
// clock, defeating StallTimeout. Pending backend bytes wait in its socket
// buffer and resurface when Ready re-adds the fd at resume.
func (sh *shard) stall(s *session, now int64) {
	if s.stalled {
		return
	}
	s.stalled = true
	s.stallStart = now
	sh.met.Inc(sh.eng.met.cStalls)
	if err := sh.Del(s.bfd, s); err != nil {
		sh.retire(s, err, now)
		return
	}
	// One-shot writability: it fires once when the socket drains, then
	// stays quiet until re-armed.
	if err := sh.Mod(s.cfd, reactor.Out|reactor.RdHup|reactor.OneShot); err != nil {
		sh.retire(s, err, now)
	}
}
