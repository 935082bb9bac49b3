package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"time"

	"coalqoe/internal/abr"
	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/exp"
	"coalqoe/internal/faults"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/qoe"
	"coalqoe/internal/telemetry"
)

// lane derives an independent seed for item i of a workload from the
// run's seed, so neighbouring items are not correlated.
func lane(seed int64, workload string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench|%s|%d|%d", workload, seed, i)
	return int64(h.Sum64() & (1<<62 - 1))
}

// sessionVideo is the content of every device session: the travel
// video cut to 60 s.
func sessionVideo() dash.Video {
	v := dash.TestVideos[0]
	v.Duration = 60 * time.Second
	return v
}

// session is one device operation's input.
type session struct {
	cfg      exp.VideoRun
	memopt   bool
	pressure bool // a balloon pressure level was requested
}

// deviceRunner runs video sessions through exp.Run and checks them.
type deviceRunner struct {
	sessions []session
	video    dash.Video
	obj      *qoe.Objective
	// maxJoules is the energy of the costliest rung over one segment.
	maxJoules float64
	lg        *ledger
	// ref holds each session's first outcome; later rounds must
	// reproduce it exactly.
	ref []*sessionOutcome
}

// sessionOutcome is what a repeated session must reproduce.
type sessionOutcome struct {
	metrics player.Metrics
	digest  uint64
}

// Device rounds hold many sessions, each with its own seed, so that a
// round's cost depends on the workload's make-up and hardly on --seed.
const (
	pressureReps = 6  // sessions per device-pressure cell
	calmSessions = 48 // sessions per device-calm round
)

// newDevicePressure builds the device-pressure round: Nokia 1 (1 GB)
// and Nexus 5 (2 GB) at Moderate and Critical balloon pressure, with
// and without the iostorm fault plan, pressureReps sessions per cell.
// Every session starts at 720p30 under the memopt ABR.
func newDevicePressure(seed int64, lg *ledger) (runner, error) {
	iostorm, err := faults.Lookup("iostorm")
	if err != nil {
		return nil, err
	}
	video := sessionVideo()
	var ss []session
	for rep := 0; rep < pressureReps; rep++ {
		for _, prof := range []device.Profile{device.Nokia1, device.Nexus5} {
			for _, level := range []proc.Level{proc.Moderate, proc.Critical} {
				for _, plan := range []*faults.Spec{nil, &iostorm} {
					ss = append(ss, session{
						cfg: exp.VideoRun{
							Seed:    lane(seed, "device-pressure", len(ss)),
							Profile: prof, Video: video,
							Resolution: dash.R720p, FPS: 30,
							Pressure: level, Faults: plan,
						},
						memopt:   true,
						pressure: true,
					})
				}
			}
		}
	}
	return newDeviceRunner(ss, video, lg), nil
}

// newDeviceCalm builds the device-calm round: calmSessions Nexus 6P
// (3 GB) sessions at Normal pressure, 1080p30 at a fixed rung, no faults.
func newDeviceCalm(seed int64, lg *ledger) (runner, error) {
	video := sessionVideo()
	var ss []session
	for i := 0; i < calmSessions; i++ {
		ss = append(ss, session{cfg: exp.VideoRun{
			Seed:    lane(seed, "device-calm", i),
			Profile: device.Nexus6P, Video: video,
			Resolution: dash.R1080p, FPS: 30,
			Pressure: proc.Normal,
		}})
	}
	return newDeviceRunner(ss, video, lg), nil
}

func newDeviceRunner(ss []session, video dash.Video, lg *ledger) *deviceRunner {
	// exp.VideoRun's default manifest ladder is 24/30/48/60 FPS.
	ladder := dash.Ladder(24, 30, 48, 60)
	r := &deviceRunner{
		sessions: ss,
		video:    video,
		obj:      qoe.DefaultObjective(ladder, video),
		lg:       lg,
		ref:      make([]*sessionOutcome, len(ss)),
	}
	for _, rung := range ladder {
		r.maxJoules = max(r.maxJoules, r.obj.Energy.ChunkJoules(rung, video.SegmentDuration))
	}
	for i := range r.sessions {
		c := &r.sessions[i].cfg
		c.Digest = true
		c.KeepDevice = true
		if lg != nil {
			// Telemetry carries kswapd's reclaim counter; an hour-long
			// sampling period keeps the sampler itself out of the run.
			c.Telemetry = &telemetry.Config{Period: time.Hour}
		}
		if r.sessions[i].memopt {
			c.OnSession = func(s *player.Session, d *device.Device) {
				var algo abr.Algorithm = &abr.QoEAware{}
				if lg != nil {
					algo = timedAlgorithm{algo, lg}
				}
				abr.Attach(s, d, algo, 2*time.Second)
			}
		}
	}
	return r
}

func (r *deviceRunner) roundSize() int { return len(r.sessions) }

func (r *deviceRunner) run(i int) error {
	s := &r.sessions[i]
	start := time.Now()
	res := exp.Run(s.cfg)
	r.lg.span("exp.run", start)
	dev := res.Device
	res.Device, res.Session = nil, nil

	start = time.Now()
	score := r.obj.Score(qoe.TraceFrom(res.Metrics, r.video))
	r.lg.span("qoe.score", start)

	if r.lg != nil {
		r.record(dev, res.Metrics)
	}
	return r.check(i, s, res, dev, score)
}

// check applies the per-session properties. A session that lmkd kills
// is a modelled outcome, not a failure.
func (r *deviceRunner) check(i int, s *session, res exp.Result, dev *device.Device, score qoe.Breakdown) error {
	m := res.Metrics
	if res.Failed {
		return fmt.Errorf("session %d failed: %s", i, res.FailReason)
	}
	if s.pressure && !res.PressureReached {
		return fmt.Errorf("session %d: %v pressure never reached", i, s.cfg.Pressure)
	}
	if ref := r.ref[i]; ref == nil {
		r.ref[i] = &sessionOutcome{metrics: m, digest: res.EventDigest}
	} else if ref.digest != res.EventDigest || !reflect.DeepEqual(ref.metrics, m) {
		return fmt.Errorf("session %d: repeated config gave different metrics or event digest (%x vs %x)", i, res.EventDigest, ref.digest)
	}
	if !(m.MinPSS <= m.MeanPSS && m.MeanPSS <= m.PeakPSS) {
		return fmt.Errorf("session %d: PSS min %v mean %v peak %v out of order", i, m.MinPSS, m.MeanPSS, m.PeakPSS)
	}
	var busy time.Duration
	for _, t := range dev.Sched.Threads() {
		busy += t.CPUTime()
	}
	// Thread CPU time is reference-core time: a core of relative speed s
	// retires s seconds of it per simulated second.
	speed := 0.0
	for _, s := range dev.Profile.CoreSpeeds {
		speed += s
	}
	if limit := time.Duration(speed * float64(dev.Clock.Now())); busy > limit {
		return fmt.Errorf("session %d: threads used %v reference CPU in %v on cores of total speed %.2f", i, busy, dev.Clock.Now(), speed)
	}
	lo, hi := r.scoreBounds(m), r.obj.Best()
	if !(score.Total >= lo && score.Total <= hi) {
		return fmt.Errorf("session %d: QoE %.4f outside [%.4f, %.4f]", i, score.Total, lo, hi)
	}
	return nil
}

// scoreBounds returns the lowest total the objective can give this
// session: Objective.Worst over its startup delay and stall time, less
// the largest smoothness and energy charges a chunk can carry (Worst
// leaves both out). Score divides every charge by the chunk count, so
// per-chunk maxima bound the averages.
func (r *deviceRunner) scoreBounds(m player.Metrics) float64 {
	o := r.obj
	return o.Worst(m.StartupDelay, m.StallTime) -
		o.SmoothnessPenalty*o.Best() - o.EnergyPenalty*r.maxJoules
}

// frameExcess returns how many frames a session presented beyond
// duration × FPS, and whether the session qualifies: it played the
// whole video at one rung without a kill or restart.
func frameExcess(m player.Metrics, video dash.Video) (int, bool) {
	if m.Crashed || m.Restarts > 0 || len(m.Switches) > 0 {
		return 0, false
	}
	expected := int(video.Duration/time.Second) * m.Rung.FPS
	return m.FramesRendered + m.FramesDropped - expected, true
}

// record adds the session's simulated work to the ledger.
func (r *deviceRunner) record(dev *device.Device, m player.Metrics) {
	lg := r.lg
	lg.add("sched.preemptions", float64(dev.Sched.Preemptions()))
	lg.add("mem.pgscan_pages", float64(dev.Mem.TotalScanned))
	lg.add("mem.refault_pages", float64(dev.Mem.TotalRefaults))
	lg.add("mem.direct_reclaims", float64(dev.Mem.DirectReclaims))
	reclaimed, _ := dev.Telem.Value("kswapd.pages_reclaimed")
	lg.add("kswapd.pages_reclaimed", reclaimed)
	lg.add("kswapd.sim_cpu_ms", ms(dev.Kswapd.Thread().CPUTime()))
	lg.add("lmkd.kills", float64(dev.Lmkd.KillCount))
	ds := dev.Disk.Stats()
	lg.add("blockio.read_requests", float64(ds.ReadRequests))
	lg.add("blockio.pages_read", float64(ds.PagesRead))
	lg.add("blockio.device_busy_ms", ms(ds.DeviceBusy))
	lg.add("blockio.peak_backlog_ms", ms(ds.PeakBacklog))
	lg.add("player.frames", float64(m.FramesRendered+m.FramesDropped))
	lg.add("player.stall_ms", ms(m.StallTime))
	if excess, ok := frameExcess(m, r.video); ok {
		lg.add("player.excess_frames", float64(excess))
		lg.add("player.fixed_rung_sessions", 1)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedAlgorithm times every decision of the wrapped algorithm.
type timedAlgorithm struct {
	abr.Algorithm
	lg *ledger
}

func (a timedAlgorithm) Decide(ctx abr.Context) dash.Rung {
	start := time.Now()
	r := a.Algorithm.Decide(ctx)
	a.lg.span("abr.decide", start)
	return r
}
