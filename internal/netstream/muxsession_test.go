package netstream

import (
	"bytes"
	"testing"

	"repro/internal/stream"
)

func TestMuxerOffers(t *testing.T) {
	a := stream.NewBuilder().Add(0, 1, 1).Add(1, 2, 2).MustBuild()
	b := stream.NewBuilder().Add(0, 3, 3).MustBuild()
	var payloadIDs []int
	m, err := NewMuxer([]*stream.Stream{a, b}, func(id, size int) []byte {
		payloadIDs = append(payloadIDs, id)
		return make([]byte, size)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Horizon() != 1 {
		t.Errorf("horizon=%d", m.Horizon())
	}
	// Session IDs are dense and interleaved by (arrival, stream):
	// a.slice0 -> 0, b.slice0 -> 1, a.slice1 -> 2.
	want := []struct{ step, id, stream, size int }{
		{0, 0, 0, 1}, {0, 1, 1, 3}, {1, 2, 0, 2},
	}
	var got []Offered
	for step := 0; step <= m.Horizon(); step++ {
		got = append(got, m.Offers(step)...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d offers, want %d", len(got), len(want))
	}
	for i, w := range want {
		o := got[i]
		if o.Slice.Arrival != w.step || o.Slice.ID != w.id || o.StreamID != w.stream ||
			o.Slice.Size != w.size || len(o.Payload) != w.size {
			t.Errorf("offer %d = %+v, want %+v", i, o, w)
		}
	}
	if len(payloadIDs) != 3 || payloadIDs[0] != 0 || payloadIDs[1] != 1 || payloadIDs[2] != 2 {
		t.Errorf("payloads synthesized for session IDs %v, want [0 1 2]", payloadIDs)
	}
	if m.Offers(-1) != nil || m.Offers(2) != nil {
		t.Error("offers outside [0, Horizon]")
	}
	if _, err := NewMuxer(nil, SynthPayload); err == nil {
		t.Error("empty muxer accepted")
	}
	// One substream keeps its own IDs and payloads.
	one, err := NewMuxer([]*stream.Stream{a}, SynthPayload)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step <= a.Horizon(); step++ {
		for i, o := range one.Offers(step) {
			sl := a.ArrivalsAt(step)[i]
			if o.Slice != sl || o.StreamID != 0 || !bytes.Equal(o.Payload, SynthPayload(sl.ID, sl.Size)) {
				t.Errorf("single-stream offer %+v, stream slice %+v", o, sl)
			}
		}
	}
}

// TestReceiveMuxValidation — a multiplexed receive needs a positive
// substream count, and a slice tagged with a substream outside it fails
// the session.
func TestReceiveMuxValidation(t *testing.T) {
	var conn bytes.Buffer
	if _, err := Receive(&conn, 0, 1, 0, nil); err == nil {
		t.Error("stream count 0 accepted")
	}
	if conn.Len() != 0 {
		t.Error("hello sent for an invalid stream count")
	}
	wire := wireOf(t,
		Data{StreamID: 1, SliceID: 1, Arrival: 0, Size: 1, SendStep: 0, Payload: SynthPayload(1, 1)},
		Data{StreamID: 2, SliceID: 2, Arrival: 1, Size: 1, SendStep: 5, Payload: SynthPayload(2, 1)},
	)
	if _, err := play(wire, 1, 2, nil); err == nil {
		t.Error("out-of-range stream tag accepted")
	}
}
