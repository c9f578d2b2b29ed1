package walk_test

import (
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
)

// TestRemoteServiceSessionDeath pins the dead-session contract: when a
// shard daemon dies mid-session (its connection drops without a
// shutdown), the whole single-session fabric is over — in-flight and
// *subsequent* Sync/Query/Close calls must fail promptly instead of
// blocking forever on acks and retires that will never arrive.
func TestRemoteServiceSessionDeath(t *testing.T) {
	const shards = 2
	listeners := make([]*tcpgob.Listener, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	// Shard 1 is a healthy node; shard 0 accepts the session and then
	// "crashes" (closes everything without serving).
	go func() {
		sc, hello, err := listeners[1].Accept()
		if err != nil {
			return
		}
		s, err := core.New(hello.NumVertices, core.DefaultConfig())
		if err != nil {
			return
		}
		e := concurrent.Wrap(s, concurrent.Config{})
		plan := walk.ShardPlan{Shards: hello.Shards, RangeSize: hello.RangeSize}
		walk.RunShardNode(e, plan, 1, sc, 1, fabric.CacheSpec{}, walk.KernelAuto)
	}()
	go func() {
		sc, _, err := listeners[0].Accept()
		if err != nil {
			return
		}
		sc.Close()
	}()

	const verts = 64
	plan := walk.NewShardPlan(verts, shards)
	port, err := tcpgob.Dial(addrs, fabric.Hello{RangeSize: plan.RangeSize, NumVertices: verts})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := walk.NewShardedLiveServiceOver(port, plan, verts, walk.ShardedLiveConfig{WalkLength: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Everything below must complete well inside the test timeout: the
	// dead shard never acks the bootstrap barrier, so only the
	// death-propagation path can unblock these calls.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Feed([]graph.Update{{Op: graph.OpInsert, Src: 1, Dst: 2, Bias: 1}}); err != nil {
			t.Logf("Feed after death: %v", err)
		}
		if err := svc.Sync(); err == nil {
			t.Error("Sync on a dead session returned nil")
		}
		if _, err := svc.Query(1, 4); err == nil {
			t.Error("Query on a dead session returned nil error")
		}
		if err := svc.Close(); err == nil {
			t.Error("Close on a dead session returned nil")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dead session left callers blocked")
	}
}

// TestStatsAgreeAcrossFabrics pins the one Stats contract on both
// fabrics: the same ring graph served in-process and through a loopback
// tcpgob port session, driven by the same deterministic queries and
// feed, reports the same walk and ingest tallies once Sync has refreshed
// the port session's acks.
func TestStatsAgreeAcrossFabrics(t *testing.T) {
	const n, shards = 64, 4
	cfg := walk.ShardedLiveConfig{WalkersPerShard: 1, WalkLength: 8, Seed: 5}
	inproc, _ := ringShardService(t, n, shards, cfg)
	defer inproc.Close()

	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n), Bias: 1}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, shards)
	for i := range addrs {
		l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
		go func(i int, l *tcpgob.Listener) {
			sc, hello, err := l.Accept()
			if err != nil {
				return
			}
			e, err := concurrent.New(hello.NumVertices, core.DefaultConfig(), concurrent.Config{})
			if err != nil {
				sc.Close()
				return
			}
			plan := walk.ShardPlan{Shards: hello.Shards, RangeSize: hello.RangeSize}
			walk.RunShardNode(e, plan, i, sc, 1, hello.Cache, walk.KernelAuto)
		}(i, l)
	}
	plan := walk.NewShardPlan(n, shards)
	port, err := tcpgob.Dial(addrs, fabric.Hello{RangeSize: plan.RangeSize, NumVertices: n})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := walk.NewShardedLiveServiceOver(port, plan, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if err := remote.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.AttachReader(walk.ReaderConfig{}); err == nil {
		t.Error("AttachReader on a port session returned nil error")
	}

	var got [2]walk.ShardedLiveStats
	var verts [2]int
	for k, svc := range []*walk.ShardedLiveService{inproc, remote} {
		for _, start := range []graph.VertexID{0, 15, 16, 40, 63} {
			if _, err := svc.Query(start, 20); err != nil {
				t.Fatalf("fabric %d: Query(%d): %v", k, start, err)
			}
		}
		// Three shards' worth of inserts, one of them growing the vertex
		// space past the ring.
		if err := svc.Feed([]graph.Update{
			{Op: graph.OpInsert, Src: 2, Dst: 40, Bias: 3},
			{Op: graph.OpInsert, Src: 20, Dst: 50, Bias: 3},
			{Op: graph.OpInsert, Src: 70, Dst: 1, Bias: 3},
		}); err != nil {
			t.Fatalf("fabric %d: Feed: %v", k, err)
		}
		if _, err := svc.Query(2, 0); err != nil {
			t.Fatalf("fabric %d: Query after feed: %v", k, err)
		}
		if err := svc.Sync(); err != nil {
			t.Fatalf("fabric %d: Sync: %v", k, err)
		}
		got[k], verts[k] = svc.Stats(), svc.NumVertices()
	}
	in, rm := got[0], got[1]
	if in.Queries != 6 || in.Steps != 5*20+8 {
		t.Errorf("in-process stats %+v, want 6 queries / %d steps", in, 5*20+8)
	}
	if rm.Queries != in.Queries || rm.Steps != in.Steps || rm.Updates != in.Updates || rm.Dropped != in.Dropped {
		t.Errorf("port session queries/steps/updates/dropped %d/%d/%d/%d, in-process %d/%d/%d/%d",
			rm.Queries, rm.Steps, rm.Updates, rm.Dropped, in.Queries, in.Steps, in.Updates, in.Dropped)
	}
	if in.Updates != 3 || in.Dropped != 0 {
		t.Errorf("ingest tallies %d updates / %d dropped, want 3 / 0", in.Updates, in.Dropped)
	}
	if verts[0] != 71 || verts[1] != 71 {
		t.Errorf("NumVertices in-process %d, port %d; want 71 on both", verts[0], verts[1])
	}
	for k, st := range got {
		var sum int64
		for _, s := range st.ShardSteps {
			sum += s
		}
		if sum != st.Steps {
			t.Errorf("fabric %d: Σ ShardSteps %d != Steps %d", k, sum, st.Steps)
		}
		if st.Local+st.Cache.RemoteHits != st.Steps {
			t.Errorf("fabric %d: Local %d + RemoteHits %d != Steps %d", k, st.Local, st.Cache.RemoteHits, st.Steps)
		}
	}
}
