package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// discardWrite is the shard's write seam for socket-free benchmarks: every
// write is taken whole.
func discardWrite(_ int, p []byte) (int, error) { return len(p), nil }

// BenchmarkEngineStepDensity is the sessions-per-core gate for the
// serving path: one shard tick over K same-clip sessions served from one
// shared precomputed schedule (a cohort pointer, tick count and byte
// offset per session, pre-encoded flushes). The shard's write is the
// discard seam, so the tick is measured without sockets. It is pinned at
// 0 allocs/op in steady state by the benchdiff gate; the sess-steps/s
// metric is sessions advanced per second on the one core driving the
// shard.
func BenchmarkEngineStepDensity(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 200
	clip, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, sessions := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("cohort/sessions=%d", sessions), func(b *testing.B) {
			eng, err := newEngine([]*trace.Clip{clip}, trace.PaperWeights(), Config{
				Rate:         2 * int(clip.AverageRate()),
				Shards:       1,
				StepDuration: time.Millisecond, // never ticks: we drive the shard manually
				MaxDelay:     16,
			})
			if err != nil {
				b.Fatal(err)
			}
			sh := newShard(eng, 0)
			sh.write = discardWrite
			c, _, err := eng.cohortFor(16)
			if err != nil {
				b.Fatal(err)
			}
			// prime lists a full load and runs its first tick off the
			// clock, so the timed region measures steady state.
			pr := &peer{}
			prime := func() {
				for i := 0; i < sessions; i++ {
					eng.active.Add(1)
					eng.sessWG.Add(1)
					sh.List(&session{cohort: c, fd: -1, peer: pr})
				}
				sh.step(0)
				runtime.GC()
			}
			prime()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(sh.Sessions()) == 0 {
					// Every session drained to End: refill off the clock.
					b.StopTimer()
					prime()
					b.StartTimer()
				}
				sh.step(0)
			}
			b.StopTimer()
			b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sess-steps/s")
			eng.Close()
		})
	}
}
