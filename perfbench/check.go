package main

import (
	"fmt"

	"github.com/bingo-rw/bingo"
)

func edgeKey(src, dst bingo.VertexID) uint64 { return uint64(src)<<32 | uint64(dst) }

// replayEdgeCount applies the tape to the initial edge set one update at a
// time and returns the live edge count it ends with: the count any correct
// ingest path must reach.
func replayEdgeCount(initial []bingo.Edge, tape []bingo.Update) int64 {
	live := make(map[uint64]struct{}, len(initial)+len(tape)/2)
	for _, e := range initial {
		live[edgeKey(e.Src, e.Dst)] = struct{}{}
	}
	for _, u := range tape {
		if u.Op == bingo.OpInsert {
			live[edgeKey(u.Src, u.Dst)] = struct{}{}
		} else {
			delete(live, edgeKey(u.Src, u.Dst))
		}
	}
	return int64(len(live))
}

// edgeBook answers whether a hop may appear in a walk served while the tape
// is being fed: the hop must be an edge of the initial graph, or one the
// tape inserted among the updates fed so far. Deleted edges stay allowed,
// since a walk may legally race a deletion.
type edgeBook struct {
	firstInsert map[uint64]int32 // edge → tape index of its first insert; -1 for initial edges
}

func newEdgeBook(initial []bingo.Edge, tape []bingo.Update) *edgeBook {
	b := &edgeBook{firstInsert: make(map[uint64]int32, len(initial)+len(tape)/2)}
	for _, e := range initial {
		b.firstInsert[edgeKey(e.Src, e.Dst)] = -1
	}
	for i, u := range tape {
		k := edgeKey(u.Src, u.Dst)
		if _, seen := b.firstInsert[k]; !seen && u.Op == bingo.OpInsert {
			b.firstInsert[k] = int32(i)
		}
	}
	return b
}

// checkPath validates one served walk: it starts at start, holds at most
// length+1 vertices, and every hop is an edge the first fed updates of the
// tape could have made visible.
func (b *edgeBook) checkPath(start bingo.VertexID, length int, path []bingo.VertexID, fed int) error {
	if len(path) == 0 || path[0] != start {
		return fmt.Errorf("walk from %d: path does not start at its start vertex: %v", start, head(path))
	}
	if len(path) > length+1 {
		return fmt.Errorf("walk from %d: %d vertices for a %d-step walk", start, len(path), length)
	}
	for i := 1; i < len(path); i++ {
		at, ok := b.firstInsert[edgeKey(path[i-1], path[i])]
		if !ok || int(at) >= fed {
			return fmt.Errorf("walk from %d: hop %d→%d is not an edge of the graph fed so far", start, path[i-1], path[i])
		}
	}
	return nil
}

func head(path []bingo.VertexID) []bingo.VertexID {
	if len(path) > 4 {
		return path[:4]
	}
	return path
}

// checkIngest validates a serving session after its final Sync: every fed
// update was applied and no batch was dropped.
func checkIngest(st bingo.ShardedLiveStats, fed int64) error {
	if st.Updates != fed {
		return fmt.Errorf("ingest: %d updates applied after the final Sync, %d fed", st.Updates, fed)
	}
	if st.Dropped != 0 {
		return fmt.Errorf("ingest: %d batches dropped", st.Dropped)
	}
	return nil
}
