package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
)

// serve-cache make-up. One round replays a fixed trace against a fresh
// server, cache and governor, so every round does the same work. The
// Zipf exponent and the arrival rate are assumptions, not measurements;
// README.md says what they were chosen for.
const (
	cacheRequests   = 6000      // requests per round (one trace)
	cacheCapacity   = 64 << 20  // cache bytes; the catalogue is ~1.9 GB
	cacheZipfS      = 1.1       // Zipf exponent over the popularity ranks
	cacheArrivalHz  = 200.0     // mean request rate over all tenants
	quotaTenant     = "bronze"  // the one tenant with a quota
	quotaRate       = 50.0      // its tokens per second
	quotaBurst      = 25.0      // its bucket depth
	fillerBlockSize = 64 * 1024 // the synthetic body's repeating block
	fillerProbe     = 256       // bytes compared in each inner block
	virtualEpochSec = int64(1_700_000_000)
)

var cacheTenants = []string{"gold", "silver", quotaTenant}

// fillerBlock is the 64 KiB block every synthetic segment body repeats:
// byte i of a block is i*31 mod 256.
var fillerBlock = func() []byte {
	b := make([]byte, fillerBlockSize)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// cacheRequest is one request of the trace and what it must return.
type cacheRequest struct {
	at     time.Duration // virtual arrival time
	req    *http.Request // shared by every request for the same tenant and key
	status int           // 200, or 429 when the quota tenant's bucket is empty
	size   int64         // the segment size the manifest gives the rung
}

type serveRunner struct {
	manifest *dash.Manifest
	trace    []cacheRequest
	quota    cdn.TenantQuota // the governor's quota for quotaTenant
	lg       *ledger

	now     time.Duration // the virtual clock the governor reads
	srv     *dash.Server
	cache   *cdn.Cache
	gov     *cdn.Governor
	lookups int64 // requests that reached the cache this round
	w       checkWriter
}

// newServeCache builds the trace: Zipf-distributed keys over rung ×
// segment of the 3-minute travel video (12 rungs × 45 segments), ranked
// by a fixed catalogue order; Poisson arrivals; tenants drawn uniformly.
// The seed drives the sample, not the catalogue.
func newServeCache(seed int64, lg *ledger) (runner, error) {
	manifest := dash.NewManifest(dash.TestVideos[0])
	type key struct {
		rung dash.Rung
		id   string
		seg  int
		rank uint64
	}
	var keys []key
	for _, rung := range manifest.Rungs {
		id := fmt.Sprintf("%s%d", rung.Resolution, rung.FPS)
		for seg := 0; seg < manifest.Video.Segments(); seg++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s/%d", id, seg)
			keys = append(keys, key{rung, id, seg, h.Sum64()})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].rank < keys[j].rank })

	rng := rand.New(rand.NewSource(lane(seed, "serve-cache", 0)))
	zipf := rand.NewZipf(rng, cacheZipfS, 1, uint64(len(keys)-1))
	shared := map[string]*http.Request{}
	trace := make([]cacheRequest, cacheRequests)
	var at time.Duration
	for i := range trace {
		at += time.Duration(rng.ExpFloat64() / cacheArrivalHz * float64(time.Second))
		k := keys[zipf.Uint64()]
		tenant := cacheTenants[rng.Intn(len(cacheTenants))]
		path := fmt.Sprintf("/video/%s/%d", k.id, k.seg)
		req := shared[tenant+path]
		if req == nil {
			var err error
			if req, err = http.NewRequest(http.MethodGet, "http://perfbench"+path, nil); err != nil {
				return nil, err
			}
			req.Header.Set(dash.TenantHeader, tenant)
			shared[tenant+path] = req
		}
		trace[i] = cacheRequest{at: at, req: req, status: http.StatusOK,
			size: int64(manifest.Video.SegmentBytes(k.rung, k.seg))}
	}
	expectThrottles(trace)
	return &serveRunner{manifest: manifest, trace: trace, lg: lg,
		quota: cdn.TenantQuota{Name: quotaTenant, Rate: quotaRate, Burst: quotaBurst},
		w:     checkWriter{header: http.Header{}}}, nil
}

// expectThrottles replays the quota tenant's token bucket over the
// virtual arrival times and marks the requests it must refuse: the
// bucket starts full, refills at quotaRate up to quotaBurst, and each
// admitted request takes one token.
func expectThrottles(trace []cacheRequest) {
	tokens, last := quotaBurst, time.Duration(0)
	for i := range trace {
		if trace[i].req.Header.Get(dash.TenantHeader) != quotaTenant {
			continue
		}
		tokens += (trace[i].at - last).Seconds() * quotaRate
		last = trace[i].at
		if tokens > quotaBurst {
			tokens = quotaBurst
		}
		if tokens < 1 {
			trace[i].status = http.StatusTooManyRequests
			continue
		}
		tokens--
	}
}

func (r *serveRunner) roundSize() int { return len(r.trace) }

// reset starts a round on a fresh server, cache and governor.
func (r *serveRunner) reset() {
	r.now = 0
	r.lookups = 0
	epoch := time.Unix(virtualEpochSec, 0)
	vnow := func() time.Time { return epoch.Add(r.now) }
	r.cache = cdn.New(cdn.Config{Capacity: cacheCapacity, Coalesce: true})
	r.gov = cdn.NewGovernor(cdn.GovernorConfig{
		Quotas: []cdn.TenantQuota{r.quota},
	}, vnow)
	r.srv = dash.NewServerOpts(r.manifest, dash.ServerOptions{Cache: r.cache, Governor: r.gov})
}

func (r *serveRunner) run(i int) error {
	if i == 0 {
		r.reset()
	}
	tr := &r.trace[i]
	r.now = tr.at
	r.w.reset()
	var before cdn.Stats
	if r.lg != nil {
		before = r.cache.Stats()
	}
	start := time.Now()
	r.srv.ServeHTTP(&r.w, tr.req)
	if r.lg != nil {
		r.lg.span("dash.serve", start)
		after := r.cache.Stats()
		switch {
		case after.Hits > before.Hits:
			r.lg.span("dash.hit", start)
		case after.Fills > before.Fills:
			r.lg.span("dash.fill", start)
		}
		r.lg.add("dash.body_mb", float64(r.w.n)/(1<<20))
		if i == len(r.trace)-1 {
			r.recordRound()
		}
	}
	return r.check(i, tr)
}

// check applies the per-request properties.
func (r *serveRunner) check(i int, tr *cacheRequest) error {
	w := &r.w
	if w.status != tr.status {
		return fmt.Errorf("request %d (%s %s): status %d, want %d", i,
			tr.req.Header.Get(dash.TenantHeader), tr.req.URL.Path, w.status, tr.status)
	}
	if w.status != http.StatusOK {
		return nil
	}
	r.lookups++
	if served := w.header.Get(dash.ServedRungHeader); served != "" {
		return fmt.Errorf("request %d: demoted to %s with brownout off", i, served)
	}
	if cl := w.header.Get("Content-Length"); cl != strconv.FormatInt(tr.size, 10) {
		return fmt.Errorf("request %d: Content-Length %q, manifest size %d", i, cl, tr.size)
	}
	if w.n != tr.size {
		return fmt.Errorf("request %d: body %d bytes, manifest size %d", i, w.n, tr.size)
	}
	if w.corrupt {
		return fmt.Errorf("request %d: body differs from the filler pattern", i)
	}
	return checkLedger(r.cache.Stats(), r.lookups, cacheCapacity)
}

// checkLedger checks that the cache's counters balance after lookups
// requests reached it on one goroutine: every lookup is a hit, a miss
// or a coalesced wait; each miss ran one fill; the residents are the
// admitted bodies less the evicted ones, and fit the capacity.
func checkLedger(s cdn.Stats, lookups, capacity int64) error {
	switch {
	case s.Hits+s.Misses+s.Coalesced != lookups:
		return fmt.Errorf("cache ledger: hits %d + misses %d + coalesced %d != lookups %d", s.Hits, s.Misses, s.Coalesced, lookups)
	case s.Fills != s.Misses:
		return fmt.Errorf("cache ledger: fills %d != misses %d", s.Fills, s.Misses)
	case s.Admitted-s.Evictions != s.Entries:
		return fmt.Errorf("cache ledger: admitted %d - evictions %d != entries %d", s.Admitted, s.Evictions, s.Entries)
	case s.Bytes > capacity || s.Bytes < 0:
		return fmt.Errorf("cache ledger: %d bytes resident, capacity %d", s.Bytes, capacity)
	}
	return nil
}

// recordRound adds a finished round's cache and governor counts.
func (r *serveRunner) recordRound() {
	cs, gs := r.cache.Stats(), r.gov.Stats()
	r.lg.add("cdn.cache.hits", float64(cs.Hits))
	r.lg.add("cdn.cache.fills", float64(cs.Fills))
	r.lg.add("cdn.cache.admitted", float64(cs.Admitted))
	r.lg.add("cdn.cache.rejected", float64(cs.Rejected))
	r.lg.add("cdn.cache.evictions", float64(cs.Evictions))
	r.lg.add("cdn.governor.throttled", float64(gs.Throttled))
}

// checkWriter is the http.ResponseWriter requests are served into: it
// counts body bytes and compares them with the filler pattern as they
// arrive, so no body is kept.
type checkWriter struct {
	header  http.Header
	status  int
	n       int64
	corrupt bool
}

func (w *checkWriter) reset() {
	clear(w.header)
	w.status, w.n, w.corrupt = 0, 0, false
}

func (w *checkWriter) Header() http.Header { return w.header }

func (w *checkWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *checkWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status == http.StatusOK && !w.corrupt && !matchesFiller(p, w.n) {
		w.corrupt = true
	}
	w.n += int64(len(p))
	return len(p), nil
}

// matchesFiller reports whether p equals the filler stream at offset
// off. A body is megabytes long and a full comparison would cost the
// benchmark as much CPU as the server spends, so within each 64 KiB
// block it compares the first fillerProbe bytes, and the whole block
// where the block is the body's first or ends the write. That catches
// truncated, zeroed, shifted and mis-sized bodies.
func matchesFiller(p []byte, off int64) bool {
	for len(p) > 0 {
		o := int(off % fillerBlockSize)
		n := min(len(p), fillerBlockSize-o)
		check := n
		if off >= fillerBlockSize && n < len(p) {
			check = min(n, fillerProbe)
		}
		if !bytes.Equal(p[:check], fillerBlock[o:o+check]) {
			return false
		}
		p, off = p[n:], off+int64(n)
	}
	return true
}
