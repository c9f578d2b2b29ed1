// Regression test for the ingest credit window: a shard that applies
// updates slowly must push back through Feed, keeping the routed-but-
// unapplied backlog bounded by the window instead of growing the shard's
// ingest queue without limit (the failure mode the credits replaced).
package walk_test

import (
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/chaos"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
)

func TestCreditWindowBoundsSlowShard(t *testing.T) {
	const (
		verts  = 64
		window = 256
		chunk  = 64
		total  = 4096
	)
	fab := chaos.New(1)
	// Every ingest element toward the lone shard crawls: ~2ms apiece is
	// slow enough that an unpaced feeder would pile up the whole tape.
	fab.SetFault(0, chaos.Fault{Delay: 2 * time.Millisecond}, chaos.Fault{})

	plan := walk.NewShardPlan(verts, 1)
	s, err := core.New(verts, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodeDone := make(chan struct{})
	go func() {
		defer close(nodeDone)
		walk.RunShardNode(concurrent.Wrap(s, concurrent.Config{}), plan, 0, fab.ShardPort(0), 1, fabric.CacheSpec{}, walk.KernelAuto)
	}()
	svc, err := walk.NewShardedLiveServiceOver(fab.CoordPort(), plan, verts, walk.ShardedLiveConfig{
		WalkLength:   4,
		CreditWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}

	for lo := 0; lo < total; lo += chunk {
		ups := make([]graph.Update, chunk)
		for i := range ups {
			ups[i] = graph.Update{Op: graph.OpInsert, Src: graph.VertexID((lo + i) % verts), Dst: graph.VertexID((lo + i + 1) % verts), Bias: uint64(lo + i + 1)}
		}
		if err := svc.Feed(ups); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := svc.Stats()
	t.Logf("backpressure %+v over %d updates", st.Backpressure, total)
	if st.Backpressure.Window != window {
		t.Fatalf("window %d, want %d", st.Backpressure.Window, window)
	}
	if st.Backpressure.MaxOutstanding > window {
		t.Fatalf("max outstanding %d exceeds the %d-event credit window — Feed is not blocking",
			st.Backpressure.MaxOutstanding, window)
	}
	if st.Backpressure.MaxOutstanding == 0 {
		t.Fatal("max outstanding 0 — the window was never exercised")
	}
	if st.Backpressure.Stalled == 0 {
		t.Fatal("feed never stalled against a shard 60x slower than the feeder — credits are not flowing")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-nodeDone:
	case <-time.After(20 * time.Second):
		t.Fatal("shard node did not exit after Close")
	}
}
