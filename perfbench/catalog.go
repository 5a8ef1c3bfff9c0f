package main

// gatedCatalog is the end_to_end list of BENCHMARK.json, in its order:
// the end-to-end metrics every workload reports in its result line. An
// operation is a suite pass on paper, a session-step (one viewer's step
// of stream) on stream and fleet, and a completed session on churn.
var gatedCatalog = []def{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"wall_us_per_op", "us"},
}

// layerCatalog is the per_layer list of BENCHMARK.json, in its order.
// Every traced run reports all of them; a layer the workload does not
// exercise reads 0.
var layerCatalog = []def{
	{"serve.tick_us_p50", "us"},
	{"serve.tick_us_p99", "us"},
	{"serve.tick_busy_pct", "%"},
	{"serve.write_us_p50", "us"},
	{"serve.write_us_p99", "us"},
	{"serve.writes", "count"},
	{"serve.write_bytes", "bytes"},
	{"serve.handle_us_p50", "us"},
	{"serve.handle_us_p99", "us"},
	{"serve.cohort_hit_pct", "%"},
	{"serve.rejected", "count"},
	{"serve.failed", "count"},
	{"serve.deadline_expiries", "count"},
	{"lb.relay_stalls", "count"},
	{"lb.relay_stall_us_p99", "us"},
	{"lb.splice_fallbacks", "count"},
	{"lb.handle_us_p50", "us"},
	{"lb.handle_us_p99", "us"},
	{"lb.admit_wait_us_p50", "us"},
	{"lb.admit_wait_us_p99", "us"},
	{"lb.pending_peak", "count"},
	{"lb.placed_pct", "%"},
	{"lb.replacements", "count"},
	{"lb.placement_failures", "count"},
	{"loadgen.dial_us_p50", "us"},
	{"loadgen.dial_us_p99", "us"},
	{"loadgen.wave_s", "s"},
	{"loadgen.session_ms_p50", "ms"},
	{"loadgen.session_ms_p99", "ms"},
	{"loadgen.msgs", "count"},
	{"loadgen.payload_bytes", "bytes"},
	{"loadgen.dial_failed", "count"},
	{"loadgen.handshake_failed", "count"},
	{"loadgen.midstream_failed", "count"},
	{"netstream.wire_bytes_per_msg", "bytes"},
	{"netstream.msgs_per_write", "count"},
	{"experiment.fig2_s", "s"},
	{"experiment.fig3_s", "s"},
	{"experiment.fig4_s", "s"},
	{"experiment.fig5_s", "s"},
	{"experiment.fig6_s", "s"},
	{"experiment.robust_s", "s"},
	{"experiment.onlinelb_s", "s"},
	{"experiment.brd_s", "s"},
	{"experiment.other_s", "s"},
	{"experiment.alloc_mb", "MB"},
	{"experiment.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}
