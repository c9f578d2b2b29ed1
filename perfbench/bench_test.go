package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/bingo-rw/bingo"
	"github.com/bingo-rw/bingo/internal/obs"
)

func TestPercentilesOnKnownSamples(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{5, 1, 4, 2, 3}, 100, 5},
		{[]float64{5, 1, 4, 2, 3}, 25, 2},
		{[]float64{40, 10, 30, 20}, 50, 25},
		{[]float64{7}, 99, 7},
		{nil, 50, 0},
	} {
		got := percentiles(append([]float64(nil), tc.xs...), tc.p)[0]
		if got != tc.want {
			t.Errorf("p%v of %v = %v, want %v", tc.p, tc.xs, got, tc.want)
		}
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean of 1, 2, 6 = %v, want 3", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, reversed
	}
	got := percentiles(xs, 50, 90, 99)
	for i, want := range []float64{50.5, 90.1, 99.01} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("percentile %d of 1..100 = %v, want %v", i, got[i], want)
		}
	}
}

func TestHistQuantileMatchesObs(t *testing.T) {
	var h obs.Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	b := h.Buckets()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := histQuantile(b[:], q), float64(h.Quantile(q)); math.Abs(got-want) >= 1 {
			t.Errorf("q%v: %v, obs says %v", q, got, want)
		}
	}
	if got := histQuantile(make([]int64, len(b)), 0.5); got != 0 {
		t.Errorf("empty histogram: %v, want 0", got)
	}
}

func TestCheckPath(t *testing.T) {
	initial := []bingo.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}
	tape := []bingo.Update{bingo.Delete(0, 1), bingo.Insert(2, 3, 1)}
	book := newEdgeBook(initial, tape)
	for _, tc := range []struct {
		name  string
		start bingo.VertexID
		path  []bingo.VertexID
		fed   int
		ok    bool
	}{
		{"initial edges", 0, []bingo.VertexID{0, 1, 2}, 0, true},
		{"deleted edge still allowed", 0, []bingo.VertexID{0, 1}, 2, true},
		{"inserted edge once fed", 1, []bingo.VertexID{1, 2, 3}, 2, true},
		{"non-edge hop", 0, []bingo.VertexID{0, 2}, 2, false},
		{"inserted edge not yet fed", 1, []bingo.VertexID{1, 2, 3}, 1, false},
		{"wrong start", 1, []bingo.VertexID{0, 1}, 0, false},
		{"empty path", 0, nil, 0, false},
		{"too long", 0, []bingo.VertexID{0, 1, 2}, 0, false},
	} {
		length := 80
		if tc.name == "too long" {
			length = 1
		}
		err := book.checkPath(tc.start, length, tc.path, tc.fed)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCheckIngest(t *testing.T) {
	if err := checkIngest(bingo.ShardedLiveStats{Updates: 100}, 100); err != nil {
		t.Errorf("complete ingest rejected: %v", err)
	}
	if err := checkIngest(bingo.ShardedLiveStats{Updates: 99}, 100); err == nil {
		t.Error("an Updates count one short of the fed count passed")
	}
	if err := checkIngest(bingo.ShardedLiveStats{Updates: 100, Dropped: 1}, 100); err == nil {
		t.Error("a dropped batch passed")
	}
}

func TestReplayEdgeCount(t *testing.T) {
	initial := []bingo.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}
	tape := []bingo.Update{bingo.Insert(2, 3, 1), bingo.Delete(0, 1), bingo.Insert(0, 1, 2), bingo.Delete(1, 2)}
	if got := replayEdgeCount(initial, tape); got != 2 {
		t.Errorf("replay: %d edges, want 2", got)
	}
}

// fakeClock advances only when slept on or when an op spends time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestStallMakesLaterSlotsLate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	const interval = 10 * time.Millisecond
	var fromDue []time.Duration
	late := openLoop(clk, clk.Now(), 10, interval, func(k int, due time.Time) {
		if k == 2 {
			clk.Sleep(55 * time.Millisecond) // the stalled call
		}
		fromDue = append(fromDue, clk.Now().Sub(due))
	})
	// Slot 2 ends at 75ms. Slots 3..7 were due at 30..70ms and start at
	// once, 45..5ms late; slot 8, due at 80ms, is on time again.
	want := []time.Duration{0, 0, 0, 45, 35, 25, 15, 5, 0, 0}
	for k := range want {
		if late[k] != want[k]*time.Millisecond {
			t.Errorf("slot %d: late %v, want %v", k, late[k], want[k]*time.Millisecond)
		}
	}
	if fromDue[2] != 55*time.Millisecond || fromDue[3] != 45*time.Millisecond {
		t.Errorf("latency from due: stalled slot %v, next slot %v; want 55ms and 45ms", fromDue[2], fromDue[3])
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	in, err := buildInputs(0.005, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{
				workload: w.Name, seed: 7, scale: 0.005, length: 80, queriesPerRound: 20,
				setups: 2, rate: 5000, feedSize: 50, syncPeriod: 20 * time.Millisecond, maxLate: time.Second,
			}
			o := runWorkload(in, cfg, 300*time.Millisecond, true)
			if len(o.problems) > 0 || o.failed > 0 {
				t.Fatalf("problems %v, %d of %d calls failed (%v)", o.problems, o.failed, o.attempted, o.firstErr)
			}
			for _, s := range endToEnd {
				if _, ok := o.e2e[s.Name]; !ok && s.Name != "ok_frac" {
					t.Errorf("end-to-end metric %s missing", s.Name)
				}
			}
			if w.Name != "live-tcp" {
				for _, k := range tcpKinds {
					if f := o.layer["fabric.tcp.frames."+k]; f != 0 {
						t.Errorf("%d tcp %s frames on a workload without tcp", int(f), k)
					}
				}
			} else if o.layer["fabric.tcp.frames.walker"] == 0 {
				t.Error("live-tcp sent no walker frames")
			}
		})
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

func TestManifestWithinContractLimits(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		largest = max(largest, *m.Bound)
	}
	if s := specOf(endToEnd, "setup_s"); s.Unit != "s" || s.Better != "lower" || *s.Bound != largest {
		t.Errorf("setup_s must be in s, lower-better, with the largest bound: %+v", s)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || m.Bound != nil {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}
