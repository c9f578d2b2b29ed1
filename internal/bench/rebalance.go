package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/rebalance"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// RebalanceSkew is the heat-aware rebalancing scenario: the graph is
// grown *entirely* from a hub-skewed tape — every source lands on the
// blocks one shard owns under the base plan, and most destinations stay
// there, so walks dwell where they start — while a client fleet hammers
// those hot vertices. This is the pathological serving pattern
// block-cyclic ownership cannot fix: with the rebalancer off, nearly
// every step is served by the one shard that owns the hot blocks; with
// it on, the coordinator's heat cycles migrate those blocks toward idle
// shards live, and the hottest shard's step share shrinks toward the
// fair share 1/N. The grid sweeps rebalance off/on × inproc/tcp. Emits
// BENCH_rebalance.json.

// RebalanceSeries is one measured (transport, rebalance) cell.
type RebalanceSeries struct {
	Transport    string  `json:"transport"`
	Rebalance    string  `json:"rebalance"` // on | off
	Shards       int     `json:"shards"`
	Walks        int64   `json:"walks"`
	Steps        int64   `json:"steps"`
	Updates      int64   `json:"updates"`
	Transfers    int64   `json:"transfers"`
	Migrations   int64   `json:"migrations"`
	MovedEdges   int64   `json:"moved_edges"`
	PlanEpoch    uint64  `json:"plan_epoch"`
	ShardSteps   []int64 `json:"shard_steps"`
	HottestShare float64 `json:"hottest_share"` // max(ShardSteps)/Steps
	// LateHottestShare is the hottest share over the window's second
	// half only (steps after the midpoint snapshot): migrations need
	// heat cycles to fire, so the session-cumulative share understates
	// the rebalanced steady state.
	LateHottestShare float64 `json:"late_hottest_share"`
	FairShare        float64 `json:"fair_share"` // 1/shards
	ElapsedSec       float64 `json:"elapsed_sec"`
	WalksPerSec      float64 `json:"walks_per_sec"`
	StepsPerSec      float64 `json:"steps_per_sec"`
}

// RebalanceReport is the BENCH_rebalance.json document.
type RebalanceReport struct {
	Scenario   string            `json:"scenario"`
	Dataset    string            `json:"dataset"`
	Vertices   int               `json:"vertices"`
	Edges      int64             `json:"edges"`
	Clients    int               `json:"clients"`
	WalkLength int               `json:"walk_length"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Series     []RebalanceSeries `json:"series"`
}

const (
	rebalanceShards = 4
	// rebalanceWindow is long enough for several heat cycles on either
	// fabric; clients keep walking until it elapses.
	rebalanceWindow = 2 * time.Second
	rebalanceCycle  = 100 * time.Millisecond
)

func runRebalance(o *Options) error {
	abbr := o.Datasets[0]
	_, g, err := o.dataset(abbr)
	if err != nil {
		return err
	}
	// The dataset sizes the vertex space; the graph itself is grown from
	// the skew tape so the heat actually concentrates (a natural graph's
	// spread-out adjacency would diffuse the walks off the hot blocks).
	v0 := g.NumVertices()
	clients := o.Workers
	basePlan := walk.NewShardPlan(v0, rebalanceShards)
	tape := hubSkewGrowthTape(v0, basePlan, 60_000, o.Seed)
	prefeed := len(tape) / 2
	starts := hotStarts(tape[:prefeed], 1024)
	rep := RebalanceReport{
		Scenario:   "RebalanceSkew",
		Dataset:    abbr,
		Vertices:   v0,
		Edges:      int64(prefeed),
		Clients:    clients,
		WalkLength: o.WalkLength,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	tbl := newTable(o.Out)
	tbl.row("transport", "rebalance", "walks/s", "steps/s", "migrations", "hottest share", "late share", "fair")
	for _, transport := range o.Transports {
		for _, mode := range []string{"off", "on"} {
			ser, err := rebalanceCell(o, v0, transport, mode, clients, starts, tape, prefeed)
			if err != nil {
				return fmt.Errorf("%s rebalance=%s: %w", transport, mode, err)
			}
			rep.Series = append(rep.Series, ser)
			tbl.row(
				ser.Transport,
				ser.Rebalance,
				fmt.Sprintf("%.0f", ser.WalksPerSec),
				fmt.Sprintf("%.0f", ser.StepsPerSec),
				fmt.Sprintf("%d", ser.Migrations),
				fmt.Sprintf("%.3f", ser.HottestShare),
				fmt.Sprintf("%.3f", ser.LateHottestShare),
				fmt.Sprintf("%.3f", ser.FairShare),
			)
		}
	}
	tbl.flush()

	return o.writeReport("BENCH_rebalance.json", &rep)
}

// hotStarts collects the distinct sources of the pre-fed tape prefix —
// vertices guaranteed to hold out-edges, all on the hot blocks.
func hotStarts(prefix []graph.Update, limit int) []graph.VertexID {
	seen := map[graph.VertexID]bool{}
	var out []graph.VertexID
	for _, up := range prefix {
		if !seen[up.Src] {
			seen[up.Src] = true
			out = append(out, up.Src)
			if len(out) >= limit {
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hubSkewGrowthTape builds the whole graph as a feed: inserts whose
// sources all land on shard 0's blocks — some beyond the initial space,
// so ownership blocks are minted under load — and whose destinations
// mostly stay there (walks starting hot remain hot; a cold destination
// is usually a dead end, so walks rarely heat other shards on their
// own).
func hubSkewGrowthTape(v0 int, plan walk.ShardPlan, n int, seed uint64) []graph.Update {
	r := xrand.New(seed)
	growTo := v0 + v0/4
	hot := func(space int) graph.VertexID {
		for {
			v := graph.VertexID(r.Intn(space))
			if plan.Owner(v) == 0 {
				return v
			}
		}
	}
	ups := make([]graph.Update, 0, n)
	for i := 0; i < n; i++ {
		src := hot(growTo)
		var dst graph.VertexID
		if r.Coin(0.7) {
			dst = hot(growTo)
		} else {
			dst = graph.VertexID(r.Intn(growTo))
		}
		ups = append(ups, graph.Update{Op: graph.OpInsert, Src: src, Dst: dst, Bias: uint64(1 + r.Intn(100))})
	}
	return ups
}

func rebalanceCell(o *Options, v0 int, transport, mode string, clients int, starts []graph.VertexID, tape []graph.Update, prefeed int) (RebalanceSeries, error) {
	reb := rebalance.Options{
		On:               mode == "on",
		Interval:         rebalanceCycle,
		Imbalance:        1.2,
		MinCycleSteps:    256,
		MaxMovesPerCycle: 2,
	}
	crew := clients / rebalanceShards
	if crew < 1 {
		crew = 1
	}
	svc, err := newRebalanceService(o, v0, transport, reb, crew)
	if err != nil {
		return RebalanceSeries{}, err
	}
	// Pre-feed half the tape and sync before the clock: the measured
	// window serves an already-skewed graph while the rest streams in.
	for lo := 0; lo < prefeed; lo += 4096 {
		hi := lo + 4096
		if hi > prefeed {
			hi = prefeed
		}
		if err := svc.Feed(append([]graph.Update(nil), tape[lo:hi]...)); err != nil {
			return RebalanceSeries{}, fmt.Errorf("prefeed: %w", err)
		}
	}
	if err := svc.Sync(); err != nil {
		return RebalanceSeries{}, fmt.Errorf("prefeed: %w", err)
	}

	done := make(chan struct{})
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		next := prefeed
		for {
			select {
			case <-done:
				return
			default:
			}
			hi := next + 512
			if hi > len(tape) {
				hi = len(tape)
			}
			if err := svc.Feed(append([]graph.Update(nil), tape[next:hi]...)); err != nil {
				return
			}
			next = hi
			if next >= len(tape) {
				next = 0 // cycle: re-inserts thicken the hub rows further
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	start := time.Now()
	var walks atomic.Int64
	// Mid-window snapshot for the late share: taken by the first client
	// to cross the midpoint.
	var midOnce sync.Once
	var midSteps []int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(o.Seed ^ seed)
			for time.Since(start) < rebalanceWindow {
				if time.Since(start) > rebalanceWindow/2 {
					midOnce.Do(func() {
						// Sync first: the tcp transport's ShardSteps refresh
						// only on barriers, and with the rebalancer off (no
						// heat barriers) the midpoint would otherwise read
						// the stale pre-window tallies.
						if err := svc.Sync(); err != nil {
							return
						}
						st := svc.Stats()
						midSteps = append([]int64(nil), st.ShardSteps...)
					})
				}
				st := starts[r.Intn(len(starts))]
				if _, err := svc.Query(st, o.WalkLength); err != nil {
					return
				}
				walks.Add(1)
			}
		}(uint64(c) + 1)
	}
	wg.Wait()
	close(done)
	feeder.Wait()
	if err := svc.Sync(); err != nil {
		return RebalanceSeries{}, fmt.Errorf("ingest: %w", err)
	}
	elapsed := time.Since(start)
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		return RebalanceSeries{}, fmt.Errorf("close: %w", err)
	}
	if st.Dropped > 0 {
		return RebalanceSeries{}, fmt.Errorf("%d feed batches dropped", st.Dropped)
	}

	share := func(steps []int64) float64 {
		var tot, max int64
		for _, s := range steps {
			tot += s
			if s > max {
				max = s
			}
		}
		if tot == 0 {
			return 0
		}
		return float64(max) / float64(tot)
	}
	late := st.ShardSteps
	if len(midSteps) == len(st.ShardSteps) {
		late = make([]int64, len(st.ShardSteps))
		for i := range late {
			late[i] = st.ShardSteps[i] - midSteps[i]
		}
	}
	return RebalanceSeries{
		Transport:        transport,
		Rebalance:        mode,
		Shards:           rebalanceShards,
		Walks:            walks.Load(),
		Steps:            st.Steps,
		Updates:          st.Updates,
		Transfers:        st.Transfers,
		Migrations:       st.Rebalance.Migrations,
		MovedEdges:       st.Rebalance.MovedEdges,
		PlanEpoch:        st.Rebalance.PlanEpoch,
		ShardSteps:       st.ShardSteps,
		HottestShare:     share(st.ShardSteps),
		LateHottestShare: share(late),
		FairShare:        1.0 / float64(rebalanceShards),
		ElapsedSec:       elapsed.Seconds(),
		WalksPerSec:      float64(walks.Load()) / elapsed.Seconds(),
		StepsPerSec:      float64(st.Steps) / elapsed.Seconds(),
	}, nil
}

// newRebalanceService builds an empty 4-shard serving runtime with the
// given rebalancer policy on the chosen transport (see newShardedService
// for the transport shapes; this adds the Rebalance config both fabrics'
// coordinators understand). The graph arrives entirely through the feed.
func newRebalanceService(o *Options, v0 int, transport string, reb rebalance.Options, crew int) (*walk.ShardedLiveService, error) {
	cfg := walk.ShardedLiveConfig{WalkersPerShard: crew, WalkLength: o.WalkLength, Seed: o.Seed, Rebalance: reb}
	empty := &graph.CSR{Offsets: make([]int64, v0+1)}
	return newShardedServiceWithConfig(o, empty, transport, fabric.CacheSpec{}, rebalanceShards, crew, cfg)
}
