package serve

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/trace"
)

// benchNow is the fixed tick timestamp used when driving shards manually;
// benchmarks never touch real connections, so the value is arbitrary.
var benchNow = time.Unix(1, 0)

// BenchmarkEngineStepDensity is the sessions-per-core gate for the
// serving path: one shard tick over K same-clip sessions served from one
// shared precomputed schedule (struct-of-arrays rows, pre-encoded
// flushes). It is pinned at 0 allocs/op in steady state by the benchdiff
// gate; the sess-steps/s metric is sessions advanced per second on the one
// core driving the shard.
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
			sh := eng.shards[0]
			c, _, err := eng.cohortFor(16)
			if err != nil {
				b.Fatal(err)
			}
			// prime registers a full load and runs the admission tick
			// off the clock, so the timed region measures steady state.
			prime := func() {
				for i := 0; i < sessions; i++ {
					eng.active.Add(1)
					eng.sessWG.Add(1)
					sh.enqueue(cohortRow{cohort: c, w: io.Discard})
				}
				sh.step(benchNow)
			}
			prime()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(sh.rows.cursors) == 0 {
					// Every session drained to End: refill off the clock.
					b.StopTimer()
					prime()
					b.StartTimer()
				}
				sh.step(benchNow)
			}
			b.StopTimer()
			b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sess-steps/s")
			eng.Close()
		})
	}
}
