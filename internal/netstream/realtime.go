package netstream

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/stream"
)

// NegotiateSession fixes the session parameters from a client Hello: the
// smoothing delay is the client's desired delay clamped to (0, maxDelay],
// and B = R·D — the paper's law — additionally capped by the client's
// advertised buffer (Section 3.3: making only one buffer bigger does not
// help), never below one step's worth. It returns the negotiated delay
// and server buffer; always 1 <= delay <= maxDelay and buffer = rate·delay.
func NegotiateSession(h Hello, rate, maxDelay int) (delay, buffer int) {
	delay = int(h.DesiredDelay)
	if delay <= 0 || delay > maxDelay {
		delay = maxDelay
	}
	buffer = rate * delay
	if cb := int(h.ClientBuffer); cb > 0 && buffer > cb {
		buffer = cb / rate * rate
		if buffer < rate {
			buffer = rate
		}
		delay = buffer / rate
	}
	return delay, buffer
}

// SynthPayload deterministically fills a payload of the given size for a
// slice ID, so receivers can verify content integrity end to end.
func SynthPayload(id, size int) []byte {
	p := make([]byte, size)
	x := synthSeed(id)
	for i := range p {
		x = synthNext(x)
		p[i] = byte(x)
	}
	return p
}

// synthSeed and synthNext are SynthPayload's generator: byte i of slice
// id's payload is the low byte of the (i+1)-th state after synthSeed(id).
func synthSeed(id int) uint32 { return uint32(id)*2654435761 + 1 }

func synthNext(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// PlayStats summarizes a receiving session.
type PlayStats struct {
	// Played is the number of complete slices delivered to the playout
	// callback; PlayedBytes their total payload.
	Played, PlayedBytes int
	// Incomplete is the number of slices discarded at their deadline.
	Incomplete int
	// LateBytes counts payload bytes that arrived after their deadline.
	LateBytes int
	// MaxBuffer is the receiver's peak buffer occupancy in bytes.
	MaxBuffer int
	// Delay is the negotiated smoothing delay.
	Delay int
	// Corrupt counts played slices whose payload failed verification.
	Corrupt int
}

// PlayedSlice describes one slice played on time.
type PlayedSlice struct {
	ID       int // session-unique slice ID
	StreamID int // substream tag
	Size     int
	Weight   float64
}

// PlayEvent reports one playout step at the receiver.
type PlayEvent struct {
	// Step is the receiver's model step: the frame with arrival Step-D
	// plays.
	Step int
	// Slices are the complete slices played this step, in the order their
	// first bytes arrived on the wire (the sender's FIFO transmission
	// order). The slice is reused by the next event.
	Slices []PlayedSlice
	// Incomplete counts slices of this frame that had bytes but were not
	// fully delivered by the deadline (they are discarded).
	Incomplete int
}

// Receive performs the client side of a session on conn: it sends Hello,
// reads Accept, then consumes data messages, anchoring its playout clock
// at the first one (the paper's timer-based client — no clock
// synchronization). streams is the number of substreams the server
// multiplexes into the session (1 for a plain stream); a slice tagged
// with a higher substream fails the session. onPlay, if non-nil, is
// invoked once per playout step that plays or discards a slice.
//
// The playout clock is driven by the *message* clock rather than the wall
// clock: frame a plays once a message with SendStep >= a+D has been seen
// or the stream ended. On a paced sender this coincides with wall-clock
// playout but keeps tests and tools deterministic and fast.
func Receive(conn io.ReadWriter, clientBuffer, desiredDelay, streams int, onPlay func(PlayEvent)) (PlayStats, error) {
	if streams < 1 {
		return PlayStats{}, fmt.Errorf("netstream: non-positive stream count %d", streams)
	}
	if err := WriteHello(conn, Hello{
		ClientBuffer: uint32(clientBuffer),
		DesiredDelay: uint32(desiredDelay),
	}); err != nil {
		return PlayStats{}, err
	}
	msg, err := ReadMsg(conn)
	if err != nil {
		return PlayStats{}, err
	}
	if msg.Accept == nil {
		return PlayStats{}, fmt.Errorf("netstream: expected accept, got %+v", msg)
	}
	return play(conn, int(msg.Accept.Delay), streams, onPlay)
}

// play consumes the data messages of a session negotiated at the given
// delay, up to End, through a core.RecvWindow.
func play(r io.Reader, delay, streams int, onPlay func(PlayEvent)) (PlayStats, error) {
	p := &player{delay: delay, streams: streams, onPlay: onPlay, slices: map[int32]liveSlice{}}
	p.win.Reset(delay, 1)
	p.ev.Step = -1
	p.outcome = p.resolved
	// The decoder reuses one payload scratch buffer across messages;
	// ingest only reads the bytes, so the aliasing is safe.
	dec := NewDecoder(r)
	for {
		msg, err := dec.Next()
		if err != nil {
			return p.stats(), fmt.Errorf("netstream: mid-stream: %w", err)
		}
		if msg.End {
			break
		}
		if msg.Data == nil {
			return p.stats(), fmt.Errorf("netstream: unexpected message %+v", msg)
		}
		if err := p.ingest(msg.Data); err != nil {
			return p.stats(), err
		}
	}
	// Stream over: everything buffered is due.
	p.playTo(p.win.MaxFrame())
	return p.stats(), nil
}

// player is Receive's playout state: the receive window does the
// paper's accounting, and a side table holds what the window does not
// keep for each live slice.
type player struct {
	win     core.RecvWindow
	delay   int
	streams int
	slices  map[int32]liveSlice
	onPlay  func(PlayEvent)
	outcome func(frame int, id int32, played bool) // p.resolved, bound once
	ev      PlayEvent                              // the step being resolved
	played  int                                    // payload bytes played
	corrupt int
}

// liveSlice is the side-table entry of a slice whose frame has not played
// yet: its tags, and a running check of its bytes against SynthPayload.
type liveSlice struct {
	frame  int
	stream int
	size   int
	weight float64
	x      uint32 // generator state after the first next bytes
	next   int
	bad    bool
}

// ingest validates one data message, plays every frame due before its
// send step, and buffers its bytes.
func (p *player) ingest(d *Data) error {
	id := int32(d.SliceID)
	switch {
	case d.Size == 0 || d.Size > MaxPayload:
		return fmt.Errorf("netstream: slice %d has invalid size %d", d.SliceID, d.Size)
	case int(d.Offset)+len(d.Payload) > int(d.Size):
		return fmt.Errorf("netstream: slice %d bytes [%d, %d) beyond size %d",
			d.SliceID, d.Offset, int(d.Offset)+len(d.Payload), d.Size)
	case int(d.StreamID) >= p.streams:
		return fmt.Errorf("netstream: slice %d tagged with unknown stream %d", d.SliceID, d.StreamID)
	case d.Arrival > d.SendStep:
		// Also bounds the receive window: no frame lies more than D+1
		// ahead of the last resolved one.
		return fmt.Errorf("netstream: slice %d sent at step %d before its arrival %d",
			d.SliceID, d.SendStep, d.Arrival)
	}
	p.playTo(int(d.SendStep) - 1 - p.delay)
	if !p.win.Ingest(id, int(d.Arrival), int32(d.Size), int32(len(d.Payload))) {
		return nil // its frame already played: counted late
	}
	s, ok := p.slices[id]
	if !ok {
		s = liveSlice{frame: int(d.Arrival), stream: int(d.StreamID), size: int(d.Size),
			weight: d.Weight, x: synthSeed(int(d.SliceID))}
	} else if s.frame != int(d.Arrival) || s.size != int(d.Size) {
		return fmt.Errorf("netstream: slice %d changed frame or size mid-slice", d.SliceID)
	}
	s.check(int(d.SliceID), int(d.Offset), d.Payload)
	p.slices[id] = s
	return nil
}

// check folds the bytes at offset off into the slice's payload check.
// Senders emit a slice's bytes in order, so the generator normally just
// continues; any other offset replays it from the start.
func (s *liveSlice) check(id, off int, b []byte) {
	if off != s.next {
		s.x = synthSeed(id)
		for i := 0; i < off; i++ {
			s.x = synthNext(s.x)
		}
	}
	for _, c := range b {
		s.x = synthNext(s.x)
		if byte(s.x) != c {
			s.bad = true
		}
	}
	s.next = off + len(b)
}

// playTo resolves every frame up to and including frame, reporting one
// PlayEvent per frame that held a slice.
func (p *player) playTo(frame int) {
	p.win.ResolveTo(frame, p.outcome)
	p.emit()
}

// resolved is the window's per-slice outcome callback.
func (p *player) resolved(frame int, id int32, played bool) {
	if step := frame + p.delay; step != p.ev.Step {
		p.emit()
		p.ev.Step = step
	}
	s := p.slices[id]
	delete(p.slices, id)
	if !played {
		p.ev.Incomplete++
		return
	}
	p.played += s.size
	if s.bad {
		p.corrupt++
	}
	p.ev.Slices = append(p.ev.Slices, PlayedSlice{ID: int(uint32(id)), StreamID: s.stream, Size: s.size, Weight: s.weight})
}

// emit hands the pending event, if it holds anything, to onPlay.
func (p *player) emit() {
	if p.onPlay != nil && (len(p.ev.Slices) > 0 || p.ev.Incomplete > 0) {
		p.onPlay(p.ev)
	}
	p.ev.Slices = p.ev.Slices[:0]
	p.ev.Incomplete = 0
}

func (p *player) stats() PlayStats {
	return PlayStats{
		Played:      p.win.Played(),
		PlayedBytes: p.played,
		Incomplete:  p.win.Incomplete(),
		LateBytes:   p.win.LateBytes(),
		MaxBuffer:   p.win.MaxOccupancy(),
		Delay:       p.delay,
		Corrupt:     p.corrupt,
	}
}

// OfferStream converts a stream plus payload function into per-step offers;
// a convenience for tests and tools driving a Sender manually.
func OfferStream(st *stream.Stream, step int, payload func(stream.Slice) []byte) []Offered {
	var out []Offered
	for _, sl := range st.ArrivalsAt(step) {
		out = append(out, Offered{Slice: sl, Payload: payload(sl)})
	}
	return out
}
