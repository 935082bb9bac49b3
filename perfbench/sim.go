package main

import (
	"bytes"
	"fmt"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
	"coalqoe/internal/faults"
	"coalqoe/internal/loadgen"
)

// simRunsPerRound is how many distinct fleet runs one round holds.
const simRunsPerRound = 2

// simConfig is the metastable-collapse scenario with full protections,
// scaled four-fold from the loadgen acceptance test: 4000 players over
// 120 s of virtual time, a 5 s total outage at 30 s, and capacity,
// queue and quotas scaled with the fleet.
func simConfig(seed int64) loadgen.SimConfig {
	return loadgen.SimConfig{
		Players:    4000,
		Tenants:    []string{"gold", "bronze"},
		Seed:       seed,
		Duration:   120 * time.Second,
		SegDur:     4 * time.Second,
		Timeout:    1500 * time.Millisecond,
		RTT:        time.Millisecond,
		ErrorPause: 250 * time.Millisecond,
		Retry:      dash.RetryPolicy{Attempts: 4, Backoff: 100 * time.Millisecond, BackoffCap: 800 * time.Millisecond},
		Ladder: []loadgen.SimRung{
			{ID: "240p30", Bytes: 250_000},
			{ID: "480p30", Bytes: 500_000},
			{ID: "1080p60", Bytes: 1_000_000},
		},
		Capacity:           64,
		ServiceFloor:       25 * time.Millisecond,
		ServiceBytesPerSec: 40 << 20,
		Faults: []faults.Window{
			{Kind: faults.NetOutage, Start: 30 * time.Second, Duration: 5 * time.Second, Severity: 1},
		},
		Protect: &loadgen.SimProtections{
			MaxQueue:   256,
			RetryAfter: time.Second,
			Quotas: []cdn.TenantQuota{
				{Name: "gold", Rate: 560, Burst: 560},
				{Name: "bronze", Rate: 560, Burst: 560},
			},
			BrownoutEnter:    0.1,
			BrownoutDemote:   2,
			CancelOnTimeout:  true,
			RetryBudget:      5,
			BreakerThreshold: 5,
			BreakerCooldown:  2 * time.Second,
			Jitter:           true,
		},
		Workers: 1,
	}
}

type simRunner struct {
	cfgs []loadgen.SimConfig
	lg   *ledger
	ref  [][]byte // each run's first report and ledger
}

func newServeSim(seed int64, lg *ledger) (runner, error) {
	r := &simRunner{lg: lg}
	for i := 0; i < simRunsPerRound; i++ {
		r.cfgs = append(r.cfgs, simConfig(lane(seed, "serve-sim", i)))
	}
	r.ref = make([][]byte, len(r.cfgs))
	return r, nil
}

func (r *simRunner) roundSize() int { return len(r.cfgs) }

func (r *simRunner) run(i int) error {
	res, err := loadgen.RunSim(r.cfgs[i])
	if err != nil {
		return err
	}
	r.lg.add("loadgen.attempts", float64(res.Attempts))
	r.lg.add("loadgen.served", float64(res.Served))
	r.lg.add("loadgen.doomed", float64(res.Doomed))
	r.lg.add("cdn.governor.shed", float64(res.Governor.Shed))
	r.lg.add("cdn.governor.throttled", float64(res.Governor.Throttled))
	r.lg.add("cdn.governor.brownout_entered", float64(res.Governor.BrownoutEntered))
	if err := checkSim(res); err != nil {
		return fmt.Errorf("fleet run %d: %v", i, err)
	}
	fp, err := simFingerprint(res)
	if err != nil {
		return err
	}
	if r.ref[i] == nil {
		r.ref[i] = fp
	} else if !bytes.Equal(r.ref[i], fp) {
		return fmt.Errorf("fleet run %d: the same seed gave a different report", i)
	}
	return nil
}

// simFingerprint renders the report plus the simulator-only ledgers,
// the bytes a repeated run must reproduce.
func simFingerprint(res *loadgen.SimResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := loadgen.WriteReport(&buf, res.Result); err != nil {
		return nil, err
	}
	g := res.Governor
	_, err := fmt.Fprintf(&buf, "attempts %d served %d doomed %d tail %d/%d/%d governor %d %d %d %d %d %d %d %d\n",
		res.Attempts, res.Served, res.Doomed, res.TailRequests, res.TailErrors, res.TailBytes,
		g.Admitted, g.Granted, g.Queued, g.Shed, g.Throttled, g.Canceled, g.BrownoutEntered, g.BrownoutExited)
	return buf.Bytes(), err
}

// checkSim checks that a fleet run's ledgers add up and that the fleet
// recovered from the outage.
func checkSim(res *loadgen.SimResult) error {
	g := res.Governor
	chaos := int64(res.ServerMetrics["dash.chaos.rejected"])
	var perRung, tenantReqs, tenantErrs, classErrs int64
	for _, n := range res.PerRung {
		perRung += n
	}
	for _, t := range res.PerTenant {
		tenantReqs += t.Requests
		tenantErrs += t.Errors
	}
	for _, n := range res.ErrorsByClass {
		classErrs += n
	}
	switch {
	case res.Attempts != chaos+g.Admitted+g.Queued+g.Shed+g.Throttled:
		return fmt.Errorf("attempts %d != chaos %d + admitted %d + queued %d + shed %d + throttled %d",
			res.Attempts, chaos, g.Admitted, g.Queued, g.Shed, g.Throttled)
	case g.Queued != g.Granted+g.Canceled || g.QueueDepth != 0 || g.Inflight != 0:
		return fmt.Errorf("queue ledger: queued %d != granted %d + canceled %d (depth %d, inflight %d left)",
			g.Queued, g.Granted, g.Canceled, g.QueueDepth, g.Inflight)
	case res.Served+res.Doomed != g.Admitted+g.Granted:
		return fmt.Errorf("services: served %d + doomed %d != admitted %d + granted %d",
			res.Served, res.Doomed, g.Admitted, g.Granted)
	case res.Requests-res.Errors != res.Served || perRung != res.Served:
		return fmt.Errorf("fetches: %d requests - %d errors, %d by rung, served %d",
			res.Requests, res.Errors, perRung, res.Served)
	case tenantReqs != res.Requests || tenantErrs != res.Errors || classErrs != res.Errors:
		return fmt.Errorf("tenants %d/%d and error classes %d disagree with %d requests/%d errors",
			tenantReqs, tenantErrs, classErrs, res.Requests, res.Errors)
	case res.TailBytes <= 0:
		return fmt.Errorf("no goodput in the tail window: the fleet did not recover")
	}
	return nil
}
