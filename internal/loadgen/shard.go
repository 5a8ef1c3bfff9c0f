package loadgen

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
	"repro/internal/stats"
)

// shardScratchSize is the per-shard read buffer: one non-blocking read
// drains up to this much of a socket before yielding to the next ready
// session.
const shardScratchSize = 256 << 10

var (
	errUnexpectedMsg = errors.New("loadgen: unexpected message mid-stream")
	errBadSlice      = errors.New("loadgen: data message with invalid size, offset or arrival")
	errIdleTimeout   = errors.New("loadgen: session idle timeout")
	errEngineClosed  = errors.New("loadgen: engine is closed")
)

// session is one client stream's state between reactor wakes: an fd, a
// lag anchor, a partial-message tail and a sliding receive window. It
// has no goroutine and no timer; everything below ~anchorWindow messages
// is fixed-size, and pending/win reach a stream-dependent steady state.
type session struct {
	idx  int
	conn net.Conn
	fd   int
	reactor.Link

	delay     int
	stepNanos int64

	// Lag anchor (see the package comment): provisional at the first
	// message, refined by the minimum of the first anchorWindow lags.
	anchored bool
	refined  bool
	nEarly   int
	early    [anchorWindow]int64 // µs, relative to the provisional anchor
	anchor   int64               // engine-monotonic nanos of schedule zero
	rebase   int64               // µs subtracted from post-refinement lags

	lastData int64  // shard stamp of the last readable byte (idle timeout)
	pending  []byte // partial-message tail carried between reads
	ended    bool   // End decoded; retire as completed

	win     core.RecvWindow
	bytes   int64
	msgs    int64
	maxStep int
	digest  uint64
	start   time.Time
}

// tally accumulates one shard's finished-session aggregates; only the
// owning shard goroutine touches it.
type tally struct {
	completed       int
	midStreamFailed int
	bytes           int64
	msgs            int64
	played          int
	incomplete      int
	maxIncomplete   int
	lateBytes       int
}

// shard owns a set of sessions: a reactor core, one scratch read buffer,
// one decoder and one lag histogram. The core drives it through the
// reactor.Handler methods below.
//
//smoothvet:confined owned by the reactor goroutine after Run hands it off
type shard struct {
	reactor.Core[*session]
	eng *Engine

	scratch []byte
	br      bytes.Reader
	dec     *netstream.Decoder

	// lag aliases the live obs histogram slot (met.HistRef), so the
	// per-message Add is also the scrape-visible series.
	lag   *stats.LogHistogram
	tally tally

	// met and rec are this shard's obs slots and flight ring: recorded
	// into only by the reactor goroutine, read elsewhere only through
	// their published snapshots.
	met *obs.ShardMetrics
	rec *obs.FlightRecorder
}

// newShardCore builds shard idx without an epoll set — the socket-free form
// the density benchmarks drive through feed directly. Engines built
// outside New (benchmarks) get a single-purpose registry on demand.
func newShardCore(e *Engine, idx int) *shard {
	if e.met == nil {
		e.met = newLoadMetrics(idx+1, nil)
		e.recs = make([]*obs.FlightRecorder, idx+1)
		for i := range e.recs {
			e.recs[i] = obs.NewFlightRecorder(0)
		}
	}
	m := e.met.reg.Shard(idx)
	sh := &shard{
		eng:     e,
		scratch: make([]byte, shardScratchSize),
		lag:     m.HistRef(e.met.hLag),
		met:     m,
		rec:     e.recs[idx],
	}
	sh.dec = netstream.NewDecoder(&sh.br)
	return sh
}

func newShard(e *Engine, idx int) (*shard, error) {
	sh := newShardCore(e, idx)
	if err := sh.Open(&e.closing, e.base, sh.met, e.met.gActive, 0); err != nil {
		return nil, err
	}
	return sh, nil
}

// run converts the shard to its reactor handler once and runs the core.
func (sh *shard) run() {
	defer sh.eng.loopWG.Done()
	sh.Run(sh)
}

// resetStats clears the per-wave aggregates. Run calls it from the main
// goroutine while the shard is quiescent between waves; the histogram
// resets go through ResetHist, whose snapshot mutex orders them against
// the reactor's periodic Publish.
func (sh *shard) resetStats() {
	sh.met.ResetHist(sh.eng.met.hLag)
	sh.met.ResetHist(sh.eng.met.hOccupancy)
	sh.tally = tally{}
}

// Admit watches a handshaken session's socket. No immediate drain: epoll
// is level-triggered, so bytes that arrived while the session sat in the
// queue surface on the next wait.
func (sh *shard) Admit(s *session, now int64) bool {
	if err := sh.Add(s.fd, s, reactor.In|reactor.RdHup); err != nil {
		sh.retire(s, StageMidStream, err, now)
		return false
	}
	sh.met.Inc(sh.eng.met.cAdmitted)
	sh.rec.Record(now, obs.EvAdmit, uint64(s.idx), 0)
	s.lastData = now
	return true
}

// Ready empties one ready socket into the shard scratch buffer and feeds
// the bytes through the decoder. A short read means the socket buffer is
// (momentarily) empty; level-triggered epoll re-arms for whatever arrives
// next.
//
//smoothvet:noalloc
func (sh *shard) Ready(s *session, fd int, events uint32, now int64) {
	for {
		n, err := syscall.Read(fd, sh.scratch)
		if n > 0 {
			s.lastData = now
			if ferr := sh.feed(s, sh.scratch[:n], now); ferr != nil {
				sh.retire(s, StageMidStream, ferr, now)
				return
			}
			if s.ended {
				sh.retire(s, "", nil, now)
				return
			}
			if n < len(sh.scratch) {
				return
			}
			continue
		}
		if err == nil {
			// EOF before End: the peer hung up mid-stream.
			sh.retire(s, StageMidStream, io.ErrUnexpectedEOF, now)
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
		sh.retire(s, StageMidStream, err, now)
		return
	}
}

// Sweep retires a session that has received nothing for IdleTimeout.
func (sh *shard) Sweep(s *session, now int64) {
	if limit := int64(sh.eng.cfg.IdleTimeout); limit > 0 && now-s.lastData > limit {
		sh.retire(s, StageMidStream, errIdleTimeout, now)
	}
}

// Abort fails a live or queued session at engine close.
func (sh *shard) Abort(s *session, now int64) {
	sh.retire(s, StageMidStream, errEngineClosed, now)
}

// retire finishes a session: success when stage is "", else a mid-stream
// failure. Runs on the shard goroutine. now is the caller's wake stamp
// (engine-monotonic nanos): retire sits downstream of the noalloc drain
// path, so it derives Elapsed from the stamp instead of re-reading the
// wall clock.
func (sh *shard) retire(s *session, stage string, err error, now int64) {
	if s.fd >= 0 {
		_ = sh.Del(s.fd, s)
	}
	sh.Remove(s)
	if s.conn != nil {
		_ = s.conn.Close()
	}
	if !s.refined && s.nEarly > 0 {
		sh.flushEarly(s)
	}
	if stage == "" {
		s.win.Finish()
		sh.met.Inc(sh.eng.met.cCompleted)
		sh.met.Observe(sh.eng.met.hOccupancy, int64(s.win.MaxOccupancy()))
		sh.rec.Record(now, obs.EvRetire, uint64(s.idx), int64(s.maxStep+1))
		sh.tally.completed++
		sh.tally.bytes += s.bytes
		sh.tally.msgs += s.msgs
		sh.tally.played += s.win.Played()
		sh.tally.incomplete += s.win.Incomplete()
		sh.tally.lateBytes += s.win.LateBytes()
		if s.win.Incomplete() > sh.tally.maxIncomplete {
			sh.tally.maxIncomplete = s.win.Incomplete()
		}
	} else {
		sh.met.Inc(sh.eng.met.cMidFailed)
		sh.rec.Record(now, obs.EvError, uint64(s.idx), int64(s.maxStep+1))
		sh.tally.midStreamFailed++
	}
	if cb := sh.eng.cfg.OnSessionDone; cb != nil {
		cb(SessionStats{
			Index:      s.idx,
			Stage:      stage,
			Err:        err,
			Steps:      s.maxStep + 1,
			Bytes:      s.bytes,
			Played:     s.win.Played(),
			Incomplete: s.win.Incomplete(),
			LateBytes:  s.win.LateBytes(),
			MaxBuffer:  s.win.MaxOccupancy(),
			Digest:     s.digest,
			Elapsed:    sh.eng.base.Add(time.Duration(now)).Sub(s.start),
		})
	}
	sh.eng.finishOne()
}

// feed pushes freshly read bytes through the shard decoder, carrying any
// partial-message tail over in the session's pending buffer. This is the
// per-step hot path: steady state performs no allocation (pending grows
// to the largest partial tail once, then is reused).
//
//smoothvet:noalloc
func (sh *shard) feed(s *session, chunk []byte, now int64) error {
	buf := chunk
	if len(s.pending) > 0 {
		s.pending = append(s.pending, chunk...)
		buf = s.pending
	}
	consumed, err := sh.parse(s, buf, now)
	if err != nil {
		return err
	}
	rest := buf[consumed:]
	if len(s.pending) > 0 {
		// Shift the unconsumed tail to the front; copy is overlap-safe.
		n := copy(s.pending, rest)
		s.pending = s.pending[:n]
	} else if len(rest) > 0 {
		s.pending = s.pending[:0]
		s.pending = append(s.pending, rest...)
	}
	return nil
}

// parse decodes every complete message in buf, returning the bytes
// consumed. SizeNext frames each message so the shard decoder reads from
// an exact in-memory slice — no per-session decoder state, no blocking.
//
//smoothvet:noalloc
func (sh *shard) parse(s *session, buf []byte, now int64) (int, error) {
	off := 0
	for {
		n, err := netstream.SizeNext(buf[off:])
		if err != nil {
			return off, err
		}
		if n == 0 || n > len(buf)-off {
			return off, nil
		}
		sh.br.Reset(buf[off : off+n])
		msg, err := sh.dec.Next()
		if err != nil {
			return off, err
		}
		off += n
		switch {
		case msg.Data != nil:
			if err := sh.onData(s, msg.Data, now); err != nil {
				return off, err
			}
		case msg.End:
			s.ended = true
			return off, nil
		default:
			return off, errUnexpectedMsg
		}
	}
}

// onData applies one data message: lag measurement against the pacing
// schedule, then the seed client's flush-then-ingest playout order on
// the receive window.
//
//smoothvet:noalloc
func (sh *shard) onData(s *session, d *netstream.Data, now int64) error {
	if d.Size == 0 || d.Size > netstream.MaxPayload {
		return errBadSlice
	}
	if int(d.Offset)+len(d.Payload) > int(d.Size) {
		return errBadSlice
	}
	// A slice cannot be sent before it arrives; an Arrival past the send
	// step would also size the receive window's ring to reach it.
	if d.Arrival > d.SendStep {
		return errBadSlice
	}
	ideal := int64(d.SendStep) * s.stepNanos
	if !s.anchored {
		s.anchor = now - ideal
		s.anchored = true
		sh.rec.Record(now, obs.EvFirstWrite, uint64(s.idx), int64(d.SendStep))
	}
	lag := (now - s.anchor - ideal) / int64(time.Microsecond)
	if !s.refined {
		s.early[s.nEarly] = lag
		s.nEarly++
		if s.nEarly == anchorWindow {
			sh.flushEarly(s)
		}
	} else {
		sh.lag.Add(lag - s.rebase)
	}
	s.bytes += int64(len(d.Payload))
	s.msgs++
	step := int(d.SendStep)
	if step > s.maxStep {
		s.maxStep = step
	}
	// Frames due strictly before this message's send step have reached
	// their playout deadline: resolve them, then ingest (the seed
	// client's flush(SendStep-1) ordering).
	s.win.ResolveTo(step-1-s.delay, nil)
	s.win.Ingest(int32(d.SliceID), int(d.Arrival), int32(d.Size), int32(len(d.Payload)))
	if sh.eng.cfg.Digest {
		s.digest = fnvFold(fnvFold(fnvFold(fnvFold(s.digest, d.SliceID), d.SendStep), d.Offset), uint32(len(d.Payload)))
	}
	return nil
}

// flushEarly rebases the buffered leading lags by their minimum and
// records them; later lags subtract the same rebase.
//
//smoothvet:noalloc
func (sh *shard) flushEarly(s *session) {
	if s.nEarly == 0 {
		s.refined = true
		return
	}
	min := s.early[0]
	for _, v := range s.early[:s.nEarly] {
		if v < min {
			min = v
		}
	}
	s.rebase = min
	for _, v := range s.early[:s.nEarly] {
		sh.lag.Add(v - min)
	}
	s.refined = true
	s.nEarly = 0
}

// FNV-1a over little-endian uint32s: the per-session message-sequence
// digest the shard-count invariance tests compare.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//smoothvet:noalloc
func fnvFold(h uint64, v uint32) uint64 {
	h ^= uint64(v & 0xff)
	h *= fnvPrime64
	h ^= uint64((v >> 8) & 0xff)
	h *= fnvPrime64
	h ^= uint64((v >> 16) & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 24)
	h *= fnvPrime64
	return h
}
