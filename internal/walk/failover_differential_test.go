// The failover extension of the sharded differential harness: a
// replicated session (every ownership block on two of three shards)
// ingests a growth tape while one shard is killed mid-stream and later
// restarted with an empty engine. The coordinator must promote the
// victim's replica, re-route walkers, re-prime the restarted shard from
// live snapshots — and the surviving state must still match a sequential
// replay edge-for-edge. Run with -race; the chaos fabric is built so
// this file can exercise the failover protocol without spawning OS
// processes (the root-package fault test covers real kill -9 daemons).
package walk_test

import (
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/chaos"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const (
	fvVerts0   = 300 // initial ring the session bootstraps
	fvVertsMax = 600 // tape references IDs up to here (growth-inducing)
	fvTapeLen  = 6000
	fvShards   = 3
	fvReplicas = 2
	fvVictim   = 1
)

// runChaosNode hosts one shard node over the chaos fabric with a fresh
// engine, the way a `-shard-serve` daemon would; the returned channel
// closes when the node's loops have exited (after a kill or session
// end).
func runChaosNode(t *testing.T, plan walk.ShardPlan, shard int, port fabric.ShardPort) chan struct{} {
	t.Helper()
	s, err := core.New(fvVerts0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := concurrent.Wrap(s, concurrent.Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := walk.RunShardNode(e, plan, shard, port, 2, fabric.CacheSpec{}, walk.KernelAuto); err != nil {
			t.Logf("shard %d node exited: %v", shard, err)
		}
	}()
	return done
}

// TestFailoverKillRestartDifferential kills shard 1 after a third of the
// tape, streams the middle third against the promoted replicas, restarts
// the shard with an empty engine, waits for the rejoin to re-prime it,
// streams the rest — and then requires the dumped edge multiset to equal
// the sequential replay, with zero dropped batches and no caller-visible
// error at any point.
func TestFailoverKillRestartDifferential(t *testing.T) {
	tape := buildGrowthTape(fvTapeLen, fvVertsMax, 0xFA11)

	ring := make([]graph.Edge, fvVerts0)
	for i := range ring {
		ring[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % fvVerts0), Bias: 1}
	}
	boot, err := graph.FromEdges(fvVerts0, ring)
	if err != nil {
		t.Fatal(err)
	}

	plan := walk.NewShardPlan(fvVerts0, fvShards)
	plan.Replicas = fvReplicas
	fab := chaos.New(fvShards)
	nodeDone := make([]chan struct{}, fvShards)
	for i := 0; i < fvShards; i++ {
		nodeDone[i] = runChaosNode(t, plan, i, fab.ShardPort(i))
	}
	svc, err := walk.NewShardedLiveServiceOver(fab.CoordPort(), plan, fvVerts0, walk.ShardedLiveConfig{
		WalkLength: 8,
		Seed:       0xFA11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Bootstrap(boot); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	// Query walkers cross shards (and the failover) for the whole run;
	// under replication every query must still complete successfully.
	qdone := make(chan struct{})
	var walkers sync.WaitGroup
	for q := 0; q < 2; q++ {
		walkers.Add(1)
		go func(seed uint64) {
			defer walkers.Done()
			r := xrand.New(seed)
			for n := 0; ; n++ {
				if n >= 16 {
					select {
					case <-qdone:
						return
					default:
					}
				}
				start := graph.VertexID(r.Intn(fvVertsMax))
				path, err := svc.Query(start, 8)
				if err != nil {
					t.Errorf("Query during failover: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
			}
		}(0xFACE + uint64(q))
	}

	feed := func(part []graph.Update) {
		const chunk = 64
		for lo := 0; lo < len(part); lo += chunk {
			hi := lo + chunk
			if hi > len(part) {
				hi = len(part)
			}
			if err := svc.Feed(part[lo:hi]); err != nil {
				t.Fatalf("Feed: %v", err)
			}
		}
	}

	third := len(tape) / 3
	feed(tape[:third])
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync before kill: %v", err)
	}

	// Kill -9: the victim's streams end mid-session, its engine state is
	// gone, and the feed keeps flowing against the promoted replicas.
	fab.Kill(fvVictim)
	select {
	case <-nodeDone[fvVictim]:
	case <-time.After(20 * time.Second):
		t.Fatal("killed shard node did not exit")
	}
	feed(tape[third : 2*third])

	// Restart with an empty engine; the coordinator must re-prime every
	// block the victim holds from a live replica before unmasking it.
	port, err := fab.Restart(fvVictim)
	if err != nil {
		t.Fatal(err)
	}
	nodeDone[fvVictim] = runChaosNode(t, plan, fvVictim, port)
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Failover.Rejoins == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rejoin did not complete; failover tallies %+v", svc.Stats().Failover)
		}
		time.Sleep(10 * time.Millisecond)
	}

	feed(tape[2*third:])
	close(qdone)
	walkers.Wait()
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after rejoin: %v", err)
	}
	st := svc.Stats()
	t.Logf("failover tallies %+v, backpressure %+v", st.Failover, st.Backpressure)
	if st.Failover.Deaths == 0 || st.Failover.Rejoins == 0 {
		t.Fatalf("failover tallies %+v: want at least one death and one completed rejoin", st.Failover)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d sub-batches across the failover", st.Dropped)
	}

	// Ownership-filtered dumps are an exact partition whether or not the
	// victim is back in rotation; the union must equal the sequential
	// replay of ring + tape.
	shardEdges, err := svc.DumpEdges()
	if err != nil {
		t.Fatalf("DumpEdges: %v", err)
	}
	seq, err := core.New(fvVertsMax, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seqUps := make([]graph.Update, 0, fvVerts0+fvTapeLen)
	for _, e := range ring {
		seqUps = append(seqUps, graph.Update{Op: graph.OpInsert, Src: e.Src, Dst: e.Dst, Bias: e.Bias})
	}
	seqUps = append(seqUps, tape...)
	if err := seq.ApplyUpdatesStreaming(seqUps); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	var got []sdEdge
	for _, es := range shardEdges {
		for _, e := range es {
			got = append(got, sdEdge{src: e.Src, dst: e.Dst, bias: e.Bias})
		}
	}
	want := appendEdges(nil, seq.Snapshot())
	sortEdges(got)
	sortEdges(want)
	if len(got) != len(want) {
		t.Fatalf("edge count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge multiset diverges at %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, d := range nodeDone {
		select {
		case <-d:
		case <-time.After(20 * time.Second):
			t.Fatalf("shard %d node did not exit after Close", i)
		}
	}
}
