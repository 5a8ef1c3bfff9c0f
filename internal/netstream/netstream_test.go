package netstream

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
)

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{ClientBuffer: 100, DesiredDelay: 7}); err != nil {
		t.Fatal(err)
	}
	if err := WriteAccept(&buf, Accept{Rate: 3, Delay: 7, ServerBuffer: 21, StepMicros: 40000}); err != nil {
		t.Fatal(err)
	}
	d := Data{SliceID: 5, Arrival: 2, Size: 4, Weight: 2.5, SendStep: 3, Offset: 1, Payload: []byte{9, 8}}
	if err := WriteData(&buf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteEnd(&buf); err != nil {
		t.Fatal(err)
	}

	m1, err := ReadMsg(&buf)
	if err != nil || m1.Hello == nil || m1.Hello.ClientBuffer != 100 || m1.Hello.DesiredDelay != 7 {
		t.Fatalf("hello round trip: %+v, %v", m1, err)
	}
	m2, err := ReadMsg(&buf)
	if err != nil || m2.Accept == nil || *m2.Accept != (Accept{3, 7, 21, 40000}) {
		t.Fatalf("accept round trip: %+v, %v", m2, err)
	}
	m3, err := ReadMsg(&buf)
	if err != nil || m3.Data == nil {
		t.Fatalf("data round trip: %+v, %v", m3, err)
	}
	if m3.Data.SliceID != 5 || m3.Data.Weight != 2.5 || !bytes.Equal(m3.Data.Payload, []byte{9, 8}) {
		t.Fatalf("data fields: %+v", m3.Data)
	}
	m4, err := ReadMsg(&buf)
	if err != nil || !m4.End {
		t.Fatalf("end round trip: %+v, %v", m4, err)
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestCodecErrors(t *testing.T) {
	// Unknown tag.
	if _, err := ReadMsg(bytes.NewReader([]byte{99})); err == nil {
		t.Error("unknown tag accepted")
	}
	// Bad magic.
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[1] ^= 0xff
	if _, err := ReadMsg(bytes.NewReader(b)); err != ErrBadMagic {
		t.Errorf("corrupted magic: err = %v", err)
	}
	// Truncated data message.
	buf.Reset()
	if err := WriteData(&buf, Data{SliceID: 1, Size: 4, Payload: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadMsg(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload accepted")
	}
	// Oversize payload length field.
	big := make([]byte, 33)
	big[0] = msgData
	for i := 29; i < 33; i++ {
		big[i] = 0xff
	}
	if _, err := ReadMsg(bytes.NewReader(big)); err == nil {
		t.Error("oversize payload length accepted")
	}
}

func TestSenderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewSender(&buf, SenderConfig{ServerBuffer: 0, Rate: 1}); err == nil {
		t.Error("B=0 accepted")
	}
	s, err := NewSender(&buf, SenderConfig{ServerBuffer: 4, Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Delay() != 2 {
		t.Errorf("derived delay = %d, want 2", s.Delay())
	}
	// Payload size mismatch.
	_, err = s.Tick([]Offered{{Slice: stream.Slice{ID: 1, Size: 3}, Payload: []byte{1}}})
	if err == nil {
		t.Error("payload size mismatch accepted")
	}
	// Duplicate ID.
	if _, err := s.Tick([]Offered{{Slice: stream.Slice{ID: 2, Size: 1}, Payload: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	_, err = s.Tick([]Offered{{Slice: stream.Slice{ID: 2, Size: 1}, Payload: []byte{1}}})
	if err == nil {
		t.Error("duplicate slice ID accepted")
	}
}

// pump drives a sender over a whole stream and drains it.
func pump(t *testing.T, st *stream.Stream, cfg SenderConfig, w io.Writer) *Sender {
	t.Helper()
	s, err := NewSender(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step <= st.Horizon(); step++ {
		offers := OfferStream(st, step, func(sl stream.Slice) []byte {
			return SynthPayload(sl.ID, sl.Size)
		})
		if _, err := s.Tick(offers); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return s
}

// receiveAll consumes a byte stream synchronously and returns the stats.
func receiveAll(t *testing.T, r io.Reader, delay int) (played []ReceivedSlice, incomplete int, rcv *Receiver) {
	t.Helper()
	rcv, err := NewReceiver(delay)
	if err != nil {
		t.Fatal(err)
	}
	playUpTo := -1
	flush := func(step int) {
		for playUpTo < step {
			playUpTo++
			ev := rcv.Play(playUpTo)
			played = append(played, ev.Slices...)
			incomplete += ev.Incomplete
		}
	}
	maxFrame := -1
	for {
		msg, err := ReadMsg(r)
		if err != nil {
			t.Fatal(err)
		}
		if msg.End {
			break
		}
		flush(int(msg.Data.SendStep) - 1)
		if int(msg.Data.Arrival) > maxFrame {
			maxFrame = int(msg.Data.Arrival)
		}
		if err := rcv.Ingest(msg.Data); err != nil {
			t.Fatal(err)
		}
	}
	flush(maxFrame + delay)
	return played, incomplete, rcv
}

// TestEndToEndMatchesSimulation — the wire pipeline plays exactly the same
// slices as core.Simulate with the same parameters.
func TestEndToEndMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		b := stream.NewBuilder()
		n := rng.Intn(30) + 5
		for i := 0; i < n; i++ {
			size := rng.Intn(4) + 1
			b.Add(rng.Intn(10), size, float64(rng.Intn(20)+1))
		}
		st := b.MustBuild()
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(4) + st.MaxSliceSize())

		var wire bytes.Buffer
		snd := pump(t, st, SenderConfig{ServerBuffer: B, Rate: R, Policy: drop.Greedy}, &wire)
		played, incomplete, _ := receiveAll(t, &wire, snd.Delay())

		sim, err := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R, Policy: drop.Greedy})
		if err != nil {
			t.Fatal(err)
		}
		wantPlayed := map[int]bool{}
		for id, o := range sim.Outcomes {
			if o.Played() {
				wantPlayed[id] = true
			}
		}
		if incomplete != 0 {
			t.Fatalf("trial %d: %d incomplete slices on a lossless wire", trial, incomplete)
		}
		if len(played) != len(wantPlayed) {
			t.Fatalf("trial %d: wire played %d slices, simulation %d", trial, len(played), len(wantPlayed))
		}
		var benefit float64
		for _, sl := range played {
			if !wantPlayed[sl.ID] {
				t.Fatalf("trial %d: wire played slice %d the simulation dropped", trial, sl.ID)
			}
			if !bytes.Equal(sl.Payload, SynthPayload(sl.ID, sl.Size)) {
				t.Fatalf("trial %d: slice %d payload corrupted", trial, sl.ID)
			}
			benefit += sl.Weight
		}
		if math.Abs(benefit-sim.Benefit()) > 1e-9 {
			t.Fatalf("trial %d: wire benefit %v != sim benefit %v", trial, benefit, sim.Benefit())
		}
	}
}

func TestReceiverLateBytesDiscarded(t *testing.T) {
	rcv, err := NewReceiver(1)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0 plays at step 1.
	if err := rcv.Ingest(&Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 0, Offset: 0, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	ev := rcv.Play(0)
	if len(ev.Slices) != 0 || ev.Incomplete != 0 {
		t.Fatalf("Play(0) = %+v", ev)
	}
	ev = rcv.Play(1)
	if ev.Incomplete != 1 {
		t.Fatalf("incomplete slice not reported: %+v", ev)
	}
	// A late byte of frame 0 arrives afterwards: discarded and counted.
	if err := rcv.Ingest(&Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 5, Offset: 1, Payload: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if rcv.LateBytes() != 1 {
		t.Errorf("LateBytes = %d, want 1", rcv.LateBytes())
	}
	if rcv.Occupancy() != 0 {
		t.Errorf("occupancy = %d after late discard", rcv.Occupancy())
	}
}

func TestReceiverBadMessages(t *testing.T) {
	rcv, err := NewReceiver(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.Ingest(&Data{SliceID: 1, Arrival: 0, Size: 0}); err == nil {
		t.Error("zero-size slice accepted")
	}
	if err := rcv.Ingest(&Data{SliceID: 2, Arrival: 0, Size: 2, Offset: 2, Payload: []byte{1}}); err == nil {
		t.Error("out-of-range offset accepted")
	}
	if _, err := NewReceiver(-1); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestSynthPayloadDeterministic(t *testing.T) {
	a := SynthPayload(7, 64)
	b := SynthPayload(7, 64)
	if !bytes.Equal(a, b) {
		t.Error("payload not deterministic")
	}
	c := SynthPayload(8, 64)
	if bytes.Equal(a, c) {
		t.Error("different IDs produced identical payloads")
	}
}

// TestServeNegotiationBranches — NegotiateSession clamps the desired
// delay to (0, maxDelay], lets a small advertised client buffer cap B (and
// thus D), floors B at one step's worth, and always returns B = R·D.
func TestServeNegotiationBranches(t *testing.T) {
	const rate, maxDelay = 2, 8
	cases := []struct {
		name      string
		hello     Hello
		wantDelay int
	}{
		{"clamped to max", Hello{DesiredDelay: 999}, 8},
		{"zero defaults to max", Hello{DesiredDelay: 0}, 8},
		{"within range", Hello{DesiredDelay: 6}, 6},
		{"loose client buffer", Hello{DesiredDelay: 6, ClientBuffer: 100}, 6},
		{"capped by client buffer", Hello{DesiredDelay: 6, ClientBuffer: 8}, 4},
		{"cap rounds down to whole steps", Hello{DesiredDelay: 6, ClientBuffer: 9}, 4},
		{"buffer below rate floors at one step", Hello{DesiredDelay: 6, ClientBuffer: 1}, 1},
	}
	for _, tc := range cases {
		delay, buffer := NegotiateSession(tc.hello, rate, maxDelay)
		if delay != tc.wantDelay {
			t.Errorf("%s: delay %d, want %d", tc.name, delay, tc.wantDelay)
		}
		if buffer != rate*delay {
			t.Errorf("%s: buffer %d, want B = R·D = %d", tc.name, buffer, rate*delay)
		}
	}
}
