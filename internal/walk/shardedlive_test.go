package walk_test

import (
	"sync"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// newShardEngines builds empty concurrent engines for a plan, each sized
// to the initial vertex space (they grow independently under the feed).
func newShardEngines(t *testing.T, plan walk.ShardPlan, numVertices int) ([]walk.LiveEngine, []*concurrent.Engine) {
	t.Helper()
	engines := make([]walk.LiveEngine, plan.Shards)
	raw := make([]*concurrent.Engine, plan.Shards)
	for i := range engines {
		e, err := concurrent.New(numVertices, core.DefaultConfig(), concurrent.Config{})
		if err != nil {
			t.Fatalf("shard %d engine: %v", i, err)
		}
		engines[i] = e
		raw[i] = e
	}
	return engines, raw
}

// ringShardService builds a sharded live service over the directed ring
// 0→1→…→n-1→0, bootstrapped the production way: partition the snapshot
// CSR, feed each shard its own batch.
func ringShardService(t *testing.T, n, shards int, cfg walk.ShardedLiveConfig) (*walk.ShardedLiveService, []*concurrent.Engine) {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n), Bias: 1}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	plan := walk.NewShardPlan(n, shards)
	engines, err := walk.BootstrapShards(g, plan, func() (walk.LiveEngine, error) {
		return concurrent.New(n, core.DefaultConfig(), concurrent.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]*concurrent.Engine, len(engines))
	for i, e := range engines {
		raw[i] = e.(*concurrent.Engine)
	}
	svc, err := walk.NewShardedLiveService(engines, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, raw
}

// TestShardedLiveServiceQueryFeedClose drives the full service lifecycle:
// deterministic ring queries across shard boundaries, routed feed with a
// Sync barrier, stats, and post-Close semantics.
func TestShardedLiveServiceQueryFeedClose(t *testing.T) {
	const n = 64
	svc, _ := ringShardService(t, n, 4, walk.ShardedLiveConfig{WalkersPerShard: 2, WalkLength: 8, Seed: 5})

	// A ring walk is deterministic: Query(start, L) = start..start+L mod n.
	for _, start := range []graph.VertexID{0, 15, 16, 63} {
		path, err := svc.Query(start, 20)
		if err != nil {
			t.Fatalf("Query(%d): %v", start, err)
		}
		if len(path) != 21 {
			t.Fatalf("Query(%d): path length %d, want 21", start, len(path))
		}
		for i, v := range path {
			if want := graph.VertexID((int(start) + i) % n); v != want {
				t.Fatalf("Query(%d): path[%d] = %d, want %d", start, i, v, want)
			}
		}
	}
	// Default length comes from the config.
	if path, err := svc.Query(3, 0); err != nil || len(path) != 9 {
		t.Fatalf("Query default length: path %d, err %v; want 9, nil", len(path), err)
	}

	st := svc.Stats()
	if st.Queries != 5 || st.Steps != 4*20+8 {
		t.Fatalf("stats %+v, want 5 queries / %d steps", st, 4*20+8)
	}
	// rangeSize 16: a 20-hop walk from 0 crosses at hops landing on 16, 32
	// — wait: from 0, 20 hops reach 20: crossing at 16 only... measured
	// globally instead: every boundary crossing except final hops.
	if st.Transfers == 0 {
		t.Fatal("20-hop ring walks across rangeSize-16 shards must transfer")
	}
	// Every sampled hop is served either by the owning engine or by a
	// cached remote view; transfers count hand-off events separately.
	if st.Local+st.Cache.RemoteHits != st.Steps {
		t.Fatalf("local(%d)+remote(%d) != steps(%d)", st.Local, st.Cache.RemoteHits, st.Steps)
	}

	// Feed a batch touching several shards, Sync, and observe it.
	batch := []graph.Update{
		{Op: graph.OpInsert, Src: 2, Dst: 40, Bias: 1000000},
		{Op: graph.OpInsert, Src: 20, Dst: 50, Bias: 1000000},
		{Op: graph.OpInsert, Src: 40, Dst: 60, Bias: 1000000},
	}
	if err := svc.Feed(batch); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st = svc.Stats()
	if st.Batches != 1 || st.Updates != 3 || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want 1 batch / 3 updates / 0 dropped", st)
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := svc.Query(0, 4); err != walk.ErrLiveClosed {
		t.Fatalf("Query after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Feed(nil); err != walk.ErrLiveClosed {
		t.Fatalf("Feed after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Sync(); err != walk.ErrLiveClosed {
		t.Fatalf("Sync after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShardedLiveServiceDropped mirrors the LiveService dropped-batch
// contract through the router: the failing sub-batch is dropped on its
// shard, the rest of the same Feed batch still applies elsewhere.
func TestShardedLiveServiceDropped(t *testing.T) {
	svc, raw := ringShardService(t, 32, 4, walk.ShardedLiveConfig{WalkersPerShard: 1})
	// Src 0 → shard 0 (bad, zero bias); Src 16 → shard 2 (good).
	if err := svc.Feed([]graph.Update{
		{Op: graph.OpInsert, Src: 0, Dst: 5, Bias: 0},
		{Op: graph.OpInsert, Src: 16, Dst: 5, Bias: 9},
	}); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := svc.Sync(); err == nil {
		t.Fatal("Sync returned nil, want the zero-bias ingest error")
	}
	st := svc.Stats()
	if st.Dropped != 1 || st.Updates != 1 {
		t.Fatalf("stats %+v, want Dropped 1 / Updates 1", st)
	}
	if !raw[2].HasEdge(16, 5) {
		t.Fatal("good sub-batch on another shard was not applied")
	}
	if raw[0].HasEdge(0, 5) {
		t.Fatal("dropped sub-batch leaked into its shard")
	}
	if err := svc.Close(); err == nil {
		t.Fatal("Close must report the first ingest error")
	}
}

// TestShardedLiveBulkDeepWalk runs the bulk kernel through the sharded
// runtime on the deterministic ring while a feed keeps ingesting.
func TestShardedLiveBulkDeepWalk(t *testing.T) {
	const n = 64
	svc, _ := ringShardService(t, n, 4, walk.ShardedLiveConfig{WalkersPerShard: 2})
	defer svc.Close()

	var feeders sync.WaitGroup
	feeders.Add(1)
	go func() {
		defer feeders.Done()
		for i := 0; i < 20; i++ {
			u := graph.VertexID(i % n)
			_ = svc.Feed([]graph.Update{
				{Op: graph.OpInsert, Src: u, Dst: graph.VertexID((i + 9) % n), Bias: 1},
				{Op: graph.OpDelete, Src: u, Dst: graph.VertexID((i + 9) % n)},
			})
		}
	}()
	res, ts, err := svc.DeepWalk(walk.Config{Length: 24, Seed: 7, CountVisits: true})
	feeders.Wait()
	if err != nil {
		t.Fatalf("DeepWalk: %v", err)
	}
	if res.Walkers != n || res.Steps != int64(n*24) {
		t.Fatalf("bulk result %d walkers / %d steps, want %d / %d", res.Walkers, res.Steps, n, n*24)
	}
	if ts.Transfers == 0 {
		t.Fatal("24-hop ring walks across 4 shards must transfer")
	}
	if ts.Local+ts.Remote != res.Steps {
		t.Fatalf("local(%d)+remote(%d) != steps(%d)", ts.Local, ts.Remote, res.Steps)
	}
	var visits int64
	for _, c := range res.Visits {
		visits += c
	}
	if visits != int64(n*25) { // starts + hops (ring edges stay intact mid-feed)
		t.Fatalf("total visits %d, want %d", visits, n*25)
	}
}

// TestShardedDeepWalkTransfersPinned pins TransferStats on a
// deterministic topology: a 10-ring split in two (0–4 / 5–9), walked from
// vertex 0 with the hub-view caches off. A finished walker must retire
// where it is: a walk whose final hop crosses the boundary pays no
// hand-off. Local counts every hop sampled by its vertex's owner, so with
// no cached remote views it equals Steps.
func TestShardedDeepWalkTransfersPinned(t *testing.T) {
	svc, _ := ringShardService(t, 10, 2, walk.ShardedLiveConfig{WalkersPerShard: 1, Cache: fabric.CacheSpec{Off: true}})
	defer svc.Close()

	cases := []struct {
		length                  int
		transfers, local, steps int64
	}{
		// 10 hops from 0 visit 1..9,0: crossing into shard 1 at hop 5
		// transfers; the hop-10 crossing back to vertex 0 is the final hop
		// and retires locally.
		{length: 10, transfers: 1, local: 10, steps: 10},
		// 12 hops: both crossings (hop 5 and hop 10) mid-walk transfer.
		{length: 12, transfers: 2, local: 12, steps: 12},
		// 5 hops: the single crossing is the final hop — zero transfers.
		{length: 5, transfers: 0, local: 5, steps: 5},
	}
	for _, tc := range cases {
		res, stats, err := svc.DeepWalk(walk.Config{Length: tc.length, Starts: []graph.VertexID{0}, Seed: 3})
		if err != nil {
			t.Fatalf("length %d: DeepWalk: %v", tc.length, err)
		}
		if res.Steps != tc.steps {
			t.Errorf("length %d: steps = %d, want %d", tc.length, res.Steps, tc.steps)
		}
		if stats.Transfers != tc.transfers || stats.Local != tc.local || stats.Remote != 0 {
			t.Errorf("length %d: transfers/local/remote = %d/%d/%d, want %d/%d/0",
				tc.length, stats.Transfers, stats.Local, stats.Remote, tc.transfers, tc.local)
		}
	}
}

// grownEngine models a shard engine whose vertex space grew past the
// size the service saw at construction: it reports the stale pre-growth
// size but walks lead well beyond it. Sampling walks the fixed chain
// u→u+stride; updates are ignored.
type grownEngine struct {
	reported int // stale NumVertices
	limit    int // walks dead-end here
	stride   int
}

func (g grownEngine) Sample(u graph.VertexID, _ *xrand.RNG) (graph.VertexID, bool) {
	next := int(u) + g.stride
	if next >= g.limit {
		return 0, false
	}
	return graph.VertexID(next), true
}
func (g grownEngine) Degree(u graph.VertexID) int {
	if int(u)+g.stride >= g.limit {
		return 0
	}
	return 1
}
func (g grownEngine) HasEdge(u, dst graph.VertexID) bool {
	return int(dst) == int(u)+g.stride && int(dst) < g.limit
}
func (g grownEngine) NumVertices() int                    { return g.reported }
func (g grownEngine) ApplyUpdates(_ []graph.Update) error { return nil }

// TestShardedVisitsBeyondInitialSpace covers the frozen-size family of
// bugs end to end: the visits tally and the owner computation must both
// survive walks onto vertices beyond the vertex space DeepWalk sized them
// for (index-out-of-range panics before the fix).
func TestShardedVisitsBeyondInitialSpace(t *testing.T) {
	e := grownEngine{reported: 8, limit: 200, stride: 7}
	plan := walk.NewShardPlan(8, 4) // rangeSize 2: vertices ≥ 8 used to owner-overflow
	svc, err := walk.NewShardedLiveService([]walk.LiveEngine{e, e, e, e}, plan, walk.ShardedLiveConfig{WalkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, stats, err := svc.DeepWalk(walk.Config{
		Length:      40,
		Starts:      []graph.VertexID{0, 1, 2, 3},
		Seed:        11,
		CountVisits: true,
	})
	if err != nil {
		t.Fatalf("DeepWalk: %v", err)
	}
	// Each walk 0..3 + 7k dead-ends just below 200: 28 hops from 0/1/2/3.
	wantSteps := int64(4 * 28)
	if res.Steps != wantSteps {
		t.Fatalf("steps = %d, want %d", res.Steps, wantSteps)
	}
	if stats.Transfers == 0 {
		t.Fatal("stride-7 chains over rangeSize-2 shards must transfer")
	}
	if len(res.Visits) < 198 {
		t.Fatalf("visits tally stopped at %d entries, want growth past 197", len(res.Visits))
	}
	// The tally must hold exactly the visited chains: v ≡ start (mod 7).
	for v, c := range res.Visits {
		want := int64(0)
		if v%7 <= 3 && v < 200 {
			want = 1
		}
		if c != want {
			t.Fatalf("visits[%d] = %d, want %d", v, c, want)
		}
	}
}
