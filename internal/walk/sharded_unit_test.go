package walk

import (
	"math"
	"testing"

	"github.com/bingo-rw/bingo/internal/graph"
)

// TestShardPlanOwnerTotal pins the block-cyclic ownership contract: inside
// the derived space it matches the classic contiguous split, and beyond it
// — the live-growth regime that used to panic — it stays in range and
// balanced.
func TestShardPlanOwnerTotal(t *testing.T) {
	p := NewShardPlan(64, 4)
	if p.RangeSize != 16 || p.Shards != 4 {
		t.Fatalf("plan = %+v, want RangeSize 16, Shards 4", p)
	}
	for v := 0; v < 64; v++ {
		if got, want := p.Owner(graph.VertexID(v)), v/16; got != want {
			t.Fatalf("Owner(%d) = %d, want contiguous %d", v, got, want)
		}
	}
	// Beyond the derived space: total, in range, block-cyclic.
	counts := make([]int, 4)
	for v := 64; v < 64+16*40; v++ {
		o := p.Owner(graph.VertexID(v))
		if o < 0 || o >= 4 {
			t.Fatalf("Owner(%d) = %d out of range", v, o)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c != 160 {
			t.Fatalf("shard %d owns %d of the overflow block, want 160 (balanced wrap)", i, c)
		}
	}
	if o := p.Owner(math.MaxUint32); o < 0 || o >= 4 {
		t.Fatalf("Owner(MaxUint32) = %d out of range", o)
	}
	// Degenerate plans never divide by zero.
	if p := NewShardPlan(0, 3); p.RangeSize != 1 {
		t.Fatalf("empty-space plan RangeSize = %d, want 1", p.RangeSize)
	}
	if p := NewShardPlan(10, 0); p.Shards != 1 {
		t.Fatalf("zero-shard plan Shards = %d, want 1", p.Shards)
	}
}
