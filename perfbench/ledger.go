package main

import "time"

// ledger collects what a traced run records from the benchmark's own
// code: span durations around the calls into each layer, and the
// simulated work the layers report through their public counters.
// The untraced runners hold a nil *ledger and skip all of it.
type ledger struct {
	spans  map[string][]float64 // seconds
	counts map[string]float64
	// paused stops recording while allocation profiling slows the run.
	paused bool
}

func newLedger() *ledger {
	return &ledger{spans: map[string][]float64{}, counts: map[string]float64{}}
}

// reset forgets everything recorded so far (the set-up's warm-up).
func (l *ledger) reset() {
	l.spans = map[string][]float64{}
	l.counts = map[string]float64{}
}

// span records one timed call; start is when it began.
func (l *ledger) span(name string, start time.Time) {
	if l == nil || l.paused {
		return
	}
	l.spans[name] = append(l.spans[name], time.Since(start).Seconds())
}

// add adds v to a simulated-work count.
func (l *ledger) add(name string, v float64) {
	if l == nil || l.paused {
		return
	}
	l.counts[name] += v
}

// spanMetrics are the span quantiles a traced run reports.
var spanMetrics = []struct {
	name, span, unit string
	q, scale         float64
}{
	{"exp.run_ms_p50", "exp.run", "ms", 0.50, 1e3},
	{"exp.run_ms_p90", "exp.run", "ms", 0.90, 1e3},
	{"abr.decide_us_p50", "abr.decide", "us", 0.50, 1e6},
	{"qoe.score_us_p50", "qoe.score", "us", 0.50, 1e6},
	{"dash.serve_us_p50", "dash.serve", "us", 0.50, 1e6},
	{"dash.serve_us_p99", "dash.serve", "us", 0.99, 1e6},
	{"dash.hit_us_p50", "dash.hit", "us", 0.50, 1e6},
	{"dash.fill_us_p50", "dash.fill", "us", 0.50, 1e6},
}

// workMetrics are simulated-work counts, reported per operation.
var workMetrics = []struct{ name, unit string }{
	// device workloads
	{"sched.preemptions", "count"},
	{"mem.pgscan_pages", "count"},
	{"mem.refault_pages", "count"},
	{"mem.direct_reclaims", "count"},
	{"kswapd.pages_reclaimed", "count"},
	{"kswapd.sim_cpu_ms", "ms"},
	{"lmkd.kills", "count"},
	{"blockio.read_requests", "count"},
	{"blockio.pages_read", "count"},
	{"blockio.device_busy_ms", "ms"},
	{"blockio.peak_backlog_ms", "ms"},
	{"player.frames", "count"},
	{"player.stall_ms", "ms"},
	// serve-cache
	{"cdn.cache.hits", "count"},
	{"cdn.cache.fills", "count"},
	{"cdn.cache.rejected", "count"},
	{"cdn.cache.evictions", "count"},
	{"dash.body_mb", "MiB"},
	// serve-cache and serve-sim
	{"cdn.governor.throttled", "count"},
	// serve-sim
	{"loadgen.attempts", "count"},
	{"loadgen.served", "count"},
	{"loadgen.doomed", "count"},
	{"cdn.governor.shed", "count"},
	{"cdn.governor.brownout_entered", "count"},
}

// ratioMetrics are quotients of two recorded counts (0 when the
// denominator is 0, that is, on workloads that do not reach the layer).
var ratioMetrics = []struct{ name, num, den, unit string }{
	{"cdn.cache.fill_kept_ratio", "cdn.cache.admitted", "cdn.cache.fills", "ratio"},
	{"loadgen.served_ratio", "loadgen.served", "loadgen.attempts", "ratio"},
	// Frames presented beyond duration × FPS, per session that played
	// to its end at one rung; see frameExcess.
	{"player.frames_over_expected", "player.excess_frames", "player.fixed_rung_sessions", "count"},
}

// metrics renders the ledger per operation.
func (l *ledger) metrics(ops int) map[string]metric {
	out := map[string]metric{}
	for _, s := range spanMetrics {
		out[s.name] = metric{quantile(l.spans[s.span], s.q) * s.scale, s.unit}
	}
	for _, w := range workMetrics {
		out[w.name] = metric{l.counts[w.name] / float64(ops), w.unit}
	}
	for _, r := range ratioMetrics {
		v := 0.0
		if d := l.counts[r.den]; d > 0 {
			v = l.counts[r.num] / d
		}
		out[r.name] = metric{v, r.unit}
	}
	return out
}
