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

// receiveAll plays a whole session's data messages through Receive's
// playout loop and returns every played slice with the session stats.
func receiveAll(t *testing.T, r io.Reader, delay, streams int) ([]PlayedSlice, PlayStats) {
	t.Helper()
	var played []PlayedSlice
	stats, err := play(r, delay, streams, func(ev PlayEvent) {
		played = append(played, ev.Slices...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return played, stats
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
		played, stats := receiveAll(t, &wire, snd.Delay(), 1)

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
		if stats.Incomplete != 0 {
			t.Fatalf("trial %d: %d incomplete slices on a lossless wire", trial, stats.Incomplete)
		}
		if stats.Corrupt != 0 {
			t.Fatalf("trial %d: %d played slices failed payload verification", trial, stats.Corrupt)
		}
		if len(played) != len(wantPlayed) || stats.Played != len(played) {
			t.Fatalf("trial %d: wire played %d slices (stats %d), simulation %d",
				trial, len(played), stats.Played, len(wantPlayed))
		}
		var benefit float64
		playedBytes := 0
		for _, sl := range played {
			if !wantPlayed[sl.ID] {
				t.Fatalf("trial %d: wire played slice %d the simulation dropped", trial, sl.ID)
			}
			if sl.Size != st.Slice(sl.ID).Size || sl.Weight != st.Slice(sl.ID).Weight {
				t.Fatalf("trial %d: slice %d played as %+v, stream has %+v", trial, sl.ID, sl, st.Slice(sl.ID))
			}
			benefit += sl.Weight
			playedBytes += sl.Size
		}
		if playedBytes != stats.PlayedBytes {
			t.Fatalf("trial %d: events carry %d bytes, stats %d", trial, playedBytes, stats.PlayedBytes)
		}
		if math.Abs(benefit-sim.Benefit()) > 1e-9 {
			t.Fatalf("trial %d: wire benefit %v != sim benefit %v", trial, benefit, sim.Benefit())
		}
	}
}

// wireOf encodes data messages followed by End.
func wireOf(t *testing.T, msgs ...Data) *bytes.Buffer {
	t.Helper()
	var wire bytes.Buffer
	for _, d := range msgs {
		if err := WriteData(&wire, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteEnd(&wire); err != nil {
		t.Fatal(err)
	}
	return &wire
}

func TestReceiverLateBytesDiscarded(t *testing.T) {
	// Delay 1: frame 0 plays at step 1. Slice 0 gets one of its two bytes
	// in time; the second arrives at step 5, after its frame played.
	wire := wireOf(t,
		Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 0, Offset: 0, Payload: []byte{1}},
		Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 5, Offset: 1, Payload: []byte{2}},
	)
	var events []PlayEvent
	stats, err := play(wire, 1, 1, func(ev PlayEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Step != 1 || events[0].Incomplete != 1 || len(events[0].Slices) != 0 {
		t.Fatalf("play events %+v, want one step-1 event with 1 incomplete slice", events)
	}
	if stats.Incomplete != 1 || stats.Played != 0 {
		t.Errorf("incomplete %d played %d, want 1 and 0", stats.Incomplete, stats.Played)
	}
	if stats.LateBytes != 1 {
		t.Errorf("LateBytes = %d, want 1", stats.LateBytes)
	}
	if stats.MaxBuffer != 1 {
		t.Errorf("MaxBuffer = %d, want the 1 byte buffered before step 1", stats.MaxBuffer)
	}
}

func TestReceiverBadMessages(t *testing.T) {
	cases := []struct {
		name string
		msgs []Data
	}{
		{"zero size", []Data{{SliceID: 1, Arrival: 0, Size: 0}}},
		{"oversize", []Data{{SliceID: 1, Arrival: 0, Size: MaxPayload + 1}}},
		{"offset past size", []Data{{SliceID: 2, Arrival: 0, Size: 2, Offset: 2, Payload: []byte{1}}}},
		{"sent before arrival", []Data{{SliceID: 3, Arrival: 1000, Size: 1, SendStep: 0, Payload: []byte{1}}}},
		{"size changed mid-slice", []Data{
			{SliceID: 4, Arrival: 0, Size: 2, Payload: []byte{1}},
			{SliceID: 4, Arrival: 0, Size: 9, Offset: 1, Payload: []byte{1, 2, 3}},
		}},
		{"frame changed mid-slice", []Data{
			{SliceID: 5, Arrival: 0, Size: 2, SendStep: 1, Payload: []byte{1}},
			{SliceID: 5, Arrival: 1, Size: 2, SendStep: 1, Offset: 1, Payload: []byte{1}},
		}},
	}
	for _, tc := range cases {
		if _, err := play(wireOf(t, tc.msgs...), 2, 1, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A non-data message mid-stream fails the session.
	var wire bytes.Buffer
	if err := WriteHello(&wire, Hello{}); err != nil {
		t.Fatal(err)
	}
	if _, err := play(&wire, 2, 1, nil); err == nil {
		t.Error("hello mid-stream accepted")
	}
}

// TestReceiveVerifiesPayload — played slices are checked byte for byte
// against SynthPayload, whichever order their chunks arrive in.
func TestReceiveVerifiesPayload(t *testing.T) {
	good := SynthPayload(7, 6)
	bad := SynthPayload(8, 3)
	bad[1] ^= 1
	wire := wireOf(t,
		// Slice 7's tail leaves before its head: the check replays.
		Data{SliceID: 7, Arrival: 0, Size: 6, Offset: 3, Payload: good[3:]},
		Data{SliceID: 7, Arrival: 0, Size: 6, Offset: 0, Payload: good[:3]},
		Data{SliceID: 8, Arrival: 0, Size: 3, Offset: 0, Payload: bad},
	)
	played, stats := receiveAll(t, wire, 1, 1)
	if len(played) != 2 || stats.PlayedBytes != 9 {
		t.Fatalf("played %+v (%d bytes), want slices 7 and 8 (9 bytes)", played, stats.PlayedBytes)
	}
	if stats.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1 (slice 8 only)", stats.Corrupt)
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
