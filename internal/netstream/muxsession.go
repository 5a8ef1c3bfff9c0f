package netstream

import (
	"fmt"

	"repro/internal/stream"
)

// Muxer interleaves several substreams into the offers of one session —
// the statistical-multiplexing deployment of package mux, on the wire: all
// substreams share one smoothing buffer and one paced link, and each data
// message carries its substream tag so the receiver can demultiplex.
//
// Slice IDs must be unique across the whole session; Muxer assigns them in
// global (arrival step, substream) order — the same interleaving mux.Merge
// uses — so that ID-based tie-breaking in drop policies treats every
// substream identically, and a wire session reproduces the mux.Shared
// simulation byte for byte. A single substream keeps its own IDs.
type Muxer struct {
	offers []Offered // every slice in session-ID order; Slice.ID is the index
	start  []int32   // offers[start[t]:start[t+1]] arrive at step t
}

// NewMuxer interleaves the substreams in one pass over their arrival
// steps; payload synthesizes the bytes of a slice from its session ID and
// size. At least one substream is required.
func NewMuxer(streams []*stream.Stream, payload func(id, size int) []byte) (*Muxer, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("netstream: muxer needs at least one stream")
	}
	horizon, total := 0, 0
	for _, st := range streams {
		total += st.Len()
		if st.Horizon() > horizon {
			horizon = st.Horizon()
		}
	}
	m := &Muxer{
		offers: make([]Offered, 0, total),
		start:  make([]int32, 0, horizon+2),
	}
	for step := 0; step <= horizon; step++ {
		m.start = append(m.start, int32(len(m.offers)))
		for si, st := range streams {
			for _, sl := range st.ArrivalsAt(step) {
				sl.ID = len(m.offers)
				m.offers = append(m.offers, Offered{Slice: sl, Payload: payload(sl.ID, sl.Size), StreamID: si})
			}
		}
	}
	m.start = append(m.start, int32(len(m.offers)))
	return m, nil
}

// Horizon returns the largest arrival step across the substreams.
func (m *Muxer) Horizon() int { return len(m.start) - 2 }

// Offers returns the combined arrivals of all substreams at the given step
// (nil outside [0, Horizon]), with session-unique slice IDs and StreamID
// tags. The result aliases the Muxer; callers must not modify it.
//
//smoothvet:aliased
func (m *Muxer) Offers(step int) []Offered {
	if step < 0 || step > m.Horizon() {
		return nil
	}
	lo, hi := m.start[step], m.start[step+1]
	return m.offers[lo:hi:hi]
}
