package main

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"coalqoe/internal/cdn"
	"coalqoe/internal/loadgen"
)

// The checks must fail on wrong outputs. Each test plants one fault the
// program could make and confirms the check that should catch it does.

func newTestServe(t *testing.T) *serveRunner {
	t.Helper()
	r, err := newServeCache(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.(*serveRunner)
}

// firstOK returns the index of the first request that must succeed.
func firstOK(t *testing.T, r *serveRunner) int {
	t.Helper()
	for i := range r.trace {
		if r.trace[i].status == http.StatusOK {
			return i
		}
	}
	t.Fatal("trace has no successful request")
	return 0
}

// plantBody serves a hand-made 200 response for request i into the
// runner's writer and runs the request checks on it.
func plantBody(r *serveRunner, i int, body []byte, contentLength int64) error {
	r.w.reset()
	r.w.Header().Set("Content-Length", strconv.FormatInt(contentLength, 10))
	r.w.WriteHeader(http.StatusOK)
	r.w.Write(body)
	return r.check(i, &r.trace[i])
}

func fillerBody(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((i % fillerBlockSize) * 31)
	}
	return b
}

func TestServeChecksPass(t *testing.T) {
	r := newTestServe(t)
	for i := 0; i < 400; i++ {
		if err := r.run(i); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestServeCheckCatchesTruncatedBody(t *testing.T) {
	r := newTestServe(t)
	r.reset()
	i := firstOK(t, r)
	size := r.trace[i].size
	// Otherwise right: a filler body under the manifest's Content-Length.
	err := plantBody(r, i, fillerBody(size-1), size)
	if err == nil || !strings.Contains(err.Error(), "body") {
		t.Fatalf("truncated body passed the checks (err %v)", err)
	}
}

func TestServeCheckCatchesCorruptBody(t *testing.T) {
	r := newTestServe(t)
	i := firstOK(t, r)
	size := r.trace[i].size
	if size < 3*fillerBlockSize {
		t.Skip("segment too small for the planted fault")
	}
	for _, off := range []int64{0, fillerBlockSize, 2 * fillerBlockSize, size - 1} {
		r := newTestServe(t)
		r.reset()
		body := fillerBody(size)
		body[off] ^= 0xff
		if err := plantBody(r, i, body, size); err == nil || !strings.Contains(err.Error(), "filler") {
			t.Errorf("body corrupted at offset %d passed the checks (err %v)", off, err)
		}
	}
}

func TestServeCheckCatchesWrongSize(t *testing.T) {
	r := newTestServe(t)
	r.reset()
	i := firstOK(t, r)
	size := r.trace[i].size
	if err := plantBody(r, i, fillerBody(size+1), size+1); err == nil {
		t.Fatal("a body one byte longer than the manifest's size passed the checks")
	}
}

func TestLedgerCheckCatchesImbalance(t *testing.T) {
	good := cdn.Stats{Hits: 5, Misses: 3, Fills: 3, Admitted: 2, Evictions: 1, Entries: 1, Bytes: 100}
	if err := checkLedger(good, 8, 1000); err != nil {
		t.Fatalf("balanced ledger failed: %v", err)
	}
	for name, bad := range map[string]func(*cdn.Stats){
		"lost hit":          func(s *cdn.Stats) { s.Hits-- },
		"fill without miss": func(s *cdn.Stats) { s.Fills++ },
		"uncounted evict":   func(s *cdn.Stats) { s.Evictions++ },
		"over capacity":     func(s *cdn.Stats) { s.Bytes = 1001 },
	} {
		s := good
		bad(&s)
		if err := checkLedger(s, 8, 1000); err == nil {
			t.Errorf("%s: unbalanced ledger %+v passed", name, s)
		}
	}
}

func TestServeCheckCatchesMiscounted429(t *testing.T) {
	r := newTestServe(t)
	// A governor whose bucket holds one token more than the quota says
	// admits a request the replayed bucket refuses.
	r.quota.Burst++
	for i := range r.trace {
		if err := r.run(i); err != nil {
			if !strings.Contains(err.Error(), "status") {
				t.Fatalf("request %d failed another check: %v", i, err)
			}
			return
		}
	}
	t.Fatal("a governor with a larger burst passed every status check")
}

func TestDeviceCheckCatchesTamperedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs device sessions")
	}
	rr, err := newDeviceCalm(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rr.(*deviceRunner)
	if err := r.run(0); err != nil {
		t.Fatalf("first session: %v", err)
	}
	if err := r.run(0); err != nil {
		t.Fatalf("repeated session: %v", err)
	}
	r.ref[0].metrics.FramesDropped++
	if err := r.run(0); err == nil || !strings.Contains(err.Error(), "repeated") {
		t.Fatalf("tampered Metrics passed the repeat check (err %v)", err)
	}
	r.ref[0].metrics.FramesDropped--
	r.ref[0].digest ^= 1
	if err := r.run(0); err == nil {
		t.Fatal("tampered event digest passed the repeat check")
	}
}

func TestSimCheckCatchesBrokenLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet simulation")
	}
	rr, err := newServeSim(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.RunSim(rr.(*simRunner).cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSim(res); err != nil {
		t.Fatalf("untampered run failed: %v", err)
	}
	res.Served++
	if err := checkSim(res); err == nil {
		t.Fatal("a served count one too high passed the ledger checks")
	}
}

// failingRunner is a round of ops operations of which operation bad
// fails its check.
type failingRunner struct{ ops, bad int }

func (f failingRunner) roundSize() int { return f.ops }

func (f failingRunner) run(i int) error {
	if i == f.bad {
		return errors.New("planted check failure")
	}
	return nil
}

func TestFailedCheckMakesRunIncorrect(t *testing.T) {
	res := endToEnd(0.1, runRounds(failingRunner{ops: 4, bad: 2}, 0))
	if res.Correct || res.Attempted != 4 || res.Failed != 1 {
		t.Fatalf("one failed check in a round of 4: got correct=%v attempted=%d failed=%d, want false 4 1",
			res.Correct, res.Attempted, res.Failed)
	}
	if res := endToEnd(0.1, runRounds(failingRunner{ops: 4, bad: -1}, 0)); !res.Correct || res.Failed != 0 {
		t.Fatalf("no failed check: got correct=%v failed=%d, want true 0", res.Correct, res.Failed)
	}
}
