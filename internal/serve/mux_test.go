package serve

import (
	"math"
	"testing"
	"time"

	"repro/internal/drop"
	"repro/internal/mux"
	"repro/internal/netstream"
	"repro/internal/stream"
	"repro/internal/trace"
)

// muxClips generates k independent clips (seeds 1..k) of the given length.
func muxClips(t *testing.T, k, frames int) []*trace.Clip {
	t.Helper()
	clips := make([]*trace.Clip, k)
	for i := range clips {
		cfg := trace.DefaultGenConfig()
		cfg.Frames = frames
		cfg.Seed = int64(i + 1)
		c, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clips[i] = c
	}
	return clips
}

// streamStats is one substream's share of what a client played.
type streamStats struct {
	played, bytes int
	weight        float64
}

// receiveMux runs one client of k substreams over loopback TCP against
// eng.Handle and returns the session stats with the per-substream split
// read off the play events.
func receiveMux(t *testing.T, eng *Engine, clientBuffer, delay, k int) (netstream.PlayStats, []streamStats) {
	t.Helper()
	server, client := tcpPair(t)
	defer client.Close()
	handled := make(chan error, 1)
	go func() { handled <- eng.Handle(server) }()
	per := make([]streamStats, k)
	stats, err := netstream.Receive(client, clientBuffer, delay, k, func(ev netstream.PlayEvent) {
		for _, sl := range ev.Slices {
			ps := &per[sl.StreamID]
			ps.played++
			ps.bytes += sl.Size
			ps.weight += sl.Weight
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-handled; err != nil {
		t.Fatalf("handle: %v", err)
	}
	return stats, per
}

// TestMuxSessionMatchesSharedSimulation — a K = 3 session served by the
// engine delivers, stream by stream, exactly the bytes and weight the
// mux.Shared simulation at the same R and B = R·D predicts, and its
// payloads verify.
func TestMuxSessionMatchesSharedSimulation(t *testing.T) {
	const k, delay = 3, 4
	clips := muxClips(t, k, 200)
	streams := make([]*stream.Stream, k)
	totalBytes, horizon, slices := 0, 0, 0
	for i, c := range clips {
		st, err := trace.WholeFrameStream(c, trace.PaperWeights())
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
		totalBytes += st.TotalBytes()
		slices += st.Len()
		if st.Horizon() > horizon {
			horizon = st.Horizon()
		}
	}
	rate := int(0.95 * float64(totalBytes) / float64(horizon+1))
	dropped := make(chan int, 1)
	eng, err := NewMux(clips, trace.PaperWeights(), Config{
		Rate:         rate,
		Shards:       1,
		StepDuration: 100 * time.Microsecond,
		MaxDelay:     delay,
		Policy:       drop.Greedy,
		OnSessionDone: func(s SessionStats, err error) {
			if err != nil {
				t.Errorf("session: %v", err)
			}
			dropped <- s.Dropped
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stats, per := receiveMux(t, eng, 0, delay, k)

	sim, err := mux.Shared(streams, rate, rate*delay, drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	played := 0
	for i := 0; i < k; i++ {
		if math.Abs(per[i].weight-sim.PerStream[i].PlayedWeight) > 1e-6 {
			t.Errorf("stream %d: wire weight %v != simulated %v", i, per[i].weight, sim.PerStream[i].PlayedWeight)
		}
		if per[i].bytes != sim.PerStream[i].PlayedBytes {
			t.Errorf("stream %d: wire bytes %d != simulated %d", i, per[i].bytes, sim.PerStream[i].PlayedBytes)
		}
		played += per[i].played
	}
	if stats.Delay != delay || stats.Played != played {
		t.Errorf("delay %d played %d, want %d and the events' %d", stats.Delay, stats.Played, delay, played)
	}
	if stats.Incomplete != 0 || stats.LateBytes != 0 || stats.Corrupt != 0 {
		t.Errorf("lossless wire lost data: %+v", stats)
	}
	if stats.MaxBuffer > rate*delay {
		t.Errorf("client peak %d exceeds R·D = %d", stats.MaxBuffer, rate*delay)
	}
	// The link runs below the offered rate: the buffer must shed slices,
	// and the engine counts exactly the ones the client never saw.
	if d := <-dropped; d == 0 || d != slices-played {
		t.Errorf("engine dropped %d slices, client missed %d of %d", d, slices-played, slices)
	}
}

// TestMuxNegotiatesClientBuffer — a multiplexed session negotiates like a
// single stream: a small advertised client buffer caps B = R·D.
func TestMuxNegotiatesClientBuffer(t *testing.T) {
	const k = 3
	clips := muxClips(t, k, 40)
	rate := int(1.1 * clips[0].AverageRate() * k)
	clientBuffer := 7*rate + rate/2
	eng, err := NewMux(clips, trace.PaperWeights(), Config{
		Rate:         rate,
		Shards:       1,
		StepDuration: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stats, _ := receiveMux(t, eng, clientBuffer, 20, k)
	if stats.Delay != 7 {
		t.Errorf("granted D = %d for a %d-byte client buffer at R = %d, want 7", stats.Delay, clientBuffer, rate)
	}
	if b := rate * stats.Delay; b > clientBuffer {
		t.Errorf("B = R·D = %d exceeds the advertised client buffer %d", b, clientBuffer)
	}
	if stats.MaxBuffer > clientBuffer || stats.Corrupt != 0 {
		t.Errorf("client peak %d (buffer %d), %d corrupt", stats.MaxBuffer, clientBuffer, stats.Corrupt)
	}
}
