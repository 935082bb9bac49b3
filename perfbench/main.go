// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation on a single goroutine (GOMAXPROCS 1),
// measures it from outside through the packages' public entry points,
// checks every operation's output, and prints one JSON result line:
//
//	perfbench --workload device-pressure --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (set-up
// time, operations per CPU second, allocations per operation, peak
// RSS). With --trace 1 it carries the per-layer ledger instead: CPU
// time and allocations folded by package, spans timed around the calls
// into each layer, and the simulated work the layers report. Both
// modes attempt whole rounds of the same operations, so the share of
// failed operations does not depend on the run length.
//
// --workload all runs the four workloads serially in one process and
// prints one line per workload, then a combined line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runner is one workload instance built from a seed: a fixed round of
// operations, each of which runs and checks its output.
type runner interface {
	// roundSize is the number of operations in one round.
	roundSize() int
	// run performs operation i of the round and returns an error when
	// one of its checks fails.
	run(i int) error
}

// workload names a benchmark workload and how to build it. A nil
// ledger builds the untraced runner; a non-nil one makes the runner
// record spans and simulated-work counts into it.
type workload struct {
	name    string
	setups  int
	build   func(seed int64, lg *ledger) (runner, error)
	perOpOf string
}

// workloads are the four workloads, in the order --workload all runs
// them; README.md gives each one's make-up and the reason it is here.
// setups is how many times a run sets the workload up to time set-up:
// the shorter the set-up, the more often, and at least five times.
var workloads = []workload{
	{name: "device-pressure", setups: 9, build: newDevicePressure, perOpOf: "session"},
	{name: "device-calm", setups: 15, build: newDeviceCalm, perOpOf: "session"},
	{name: "serve-cache", setups: 15, build: newServeCache, perOpOf: "request"},
	{name: "serve-sim", setups: 5, build: newServeSim, perOpOf: "fleet run"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 reports the per-layer ledger from a traced run instead of the end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if statmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: resident set size: %v\n", statmErr)
		os.Exit(1)
	}
	// One goroutine per workload, one P: the garbage collector works on
	// that P too, so no idle P runs idle-priority mark workers whose CPU
	// time would depend on scheduling rather than on the work.
	runtime.GOMAXPROCS(1)

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		combined.Correct = combined.Correct && res.Correct
		if len(todo) == 1 {
			printJSON(res)
			break
		}
		fmt.Printf("%s: ", w.name)
		printJSON(res)
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, m := range res.Metrics {
			combined.Metrics[w.name+"."+k] = m
		}
	}
	if len(todo) > 1 {
		printJSON(combined)
	}
	if !combined.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: an operation failed its checks")
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func printJSON(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// phase is the outcome of running whole rounds for a while.
type phase struct {
	attempted, failed int
	cpu               time.Duration
	mallocs, bytes    uint64
	// roundRates and roundRSS hold each round's operations per CPU
	// second and the highest resident set size sampled after any of
	// its operations.
	roundRates, roundRSS []float64
	firstErr             error
}

// opsPerCPUSecond is the median over rounds of operations per CPU
// second: a neighbour's burst of load slows a few rounds, not the
// median.
func (p phase) opsPerCPUSecond() float64 { return median(append([]float64(nil), p.roundRates...)) }

// peakRSSMiB is the median over rounds of each round's highest sampled
// resident set size. The process's high-water mark would instead be set
// by one rare coincidence of a large allocation with a GC cycle.
func (p phase) peakRSSMiB() float64 {
	return median(append([]float64(nil), p.roundRSS...)) / (1 << 20)
}

// runRounds runs whole rounds of r until budget has elapsed (at least
// one round), measuring process CPU time and heap allocations over
// exactly those rounds.
func runRounds(r runner, budget time.Duration) phase {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	for {
		roundCPU := processCPU()
		peak := 0.0
		for i := 0; i < r.roundSize(); i++ {
			p.attempted++
			if err := r.run(i); err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = err
				}
			}
			peak = max(peak, residentBytes())
		}
		p.roundRates = append(p.roundRates, float64(r.roundSize())/(processCPU()-roundCPU).Seconds())
		p.roundRSS = append(p.roundRSS, peak)
		if time.Since(start) >= budget {
			break
		}
	}
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// setUp builds the workload n times, each time from the same seed and
// including one warm-up operation, and returns the last instance with
// the median set-up wall time. Each set-up starts from a collected heap
// with the previous instance dropped, so a garbage-collection cycle
// left over from earlier work does not land in some set-ups and not in
// others.
func setUp(w workload, seed int64, lg *ledger, n int) (runner, float64, error) {
	var times []float64
	var r runner
	for k := 0; k < n; k++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.build(seed, lg); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		// A failed check here is counted when the timed rounds run
		// operation 0 again.
		if err := r.run(0); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: warm-up operation: %v\n", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, median(times), nil
}

// measure runs one workload in the requested mode.
func measure(w workload, seed int64, seconds time.Duration, traced bool) (result, error) {
	r, setupS, err := setUp(w, seed, nil, w.setups)
	if err != nil {
		return result{}, err
	}
	if !traced {
		p := runRounds(r, seconds)
		report(w, p)
		return endToEnd(setupS, p), nil
	}
	// Traced run, in three parts of equal length: untraced; traced
	// with the ledger and a CPU profile; traced with every allocation
	// recorded. Recording allocations slows the program several-fold,
	// so CPU time by layer and span timings come from the second part
	// alone. The first two rates give the tracing overhead.
	plain := runRounds(r, seconds/3)
	report(w, plain)
	lg := newLedger()
	tr, _, err := setUp(w, seed, lg, 1)
	if err != nil {
		return result{}, err
	}
	lg.reset()
	cpuPhase, cpuByLayer, samplesByLayer, err := cpuProfileRounds(tr, seconds/3)
	if err != nil {
		return result{}, err
	}
	report(w, cpuPhase)
	lg.paused = true
	allocPhase, allocsByLayer := allocProfileRounds(tr, seconds-2*(seconds/3))
	report(w, allocPhase)

	ms := lg.metrics(cpuPhase.attempted)
	for _, l := range layers {
		ms[l+".cpu_ms_per_op"] = metric{float64(cpuByLayer[l]) / 1e6 / float64(cpuPhase.attempted), "ms"}
		ms[l+".cpu_samples"] = metric{float64(samplesByLayer[l]), "count"}
		ms[l+".allocs_per_op"] = metric{float64(allocsByLayer[l]) / float64(allocPhase.attempted), "count"}
	}
	ms["gc.cpu_ms_per_op"] = metric{float64(cpuByLayer["gc"]) / 1e6 / float64(cpuPhase.attempted), "ms"}
	ms["gc.cpu_samples"] = metric{float64(samplesByLayer["gc"]), "count"}
	ms["tracing.untraced_ops_per_cpu_s"] = metric{plain.opsPerCPUSecond(), "1/s"}
	ms["tracing.traced_ops_per_cpu_s"] = metric{cpuPhase.opsPerCPUSecond(), "1/s"}
	ms["tracing.overhead_pct"] = metric{100 * (1 - cpuPhase.opsPerCPUSecond()/plain.opsPerCPUSecond()), "%"}
	failed := plain.failed + cpuPhase.failed + allocPhase.failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted + cpuPhase.attempted + allocPhase.attempted,
		Failed:    failed,
		Metrics:   ms,
	}, nil
}

// endToEnd is the untraced result of a run. Every failure is a check
// that did not hold, so the run is correct only when none failed.
func endToEnd(setupS float64, p phase) result {
	return result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_cpu_s":   {p.opsPerCPUSecond(), "1/s"},
			"allocs_per_op":   {float64(p.mallocs) / float64(p.attempted), "count"},
			"alloc_mb_per_op": {float64(p.bytes) / float64(p.attempted) / (1 << 20), "MiB"},
			"peak_rss_mb":     {p.peakRSSMiB(), "MiB"},
		},
	}
}

// report writes a human-readable summary of a phase to stderr.
func report(w workload, p phase) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d %ss in %.2fs CPU, %d failed\n",
		w.name, p.attempted, w.perOpOf, p.cpu.Seconds(), p.failed)
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", w.name, p.firstErr)
	}
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile (0..1) of xs by nearest rank (xs is
// reordered); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
