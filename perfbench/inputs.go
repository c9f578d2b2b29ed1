package main

import (
	"fmt"
	"sort"

	"github.com/bingo-rw/bingo"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
)

// inputs are everything a run feeds the program, derived from the seed
// alone: the AM stand-in graph (R-MAT, degree-derived biases) split into an
// initial snapshot and the paper's §6.1 mixed insert/delete tape.
type inputs struct {
	vertices int
	initial  []bingo.Edge
	tape     []bingo.Update
	// rounds and batch split the tape the way gen.BuildWorkload does:
	// rounds × batch == len(tape).
	rounds, batch int
	// finalEdges is the edge count after a sequential replay of the whole
	// tape over the initial snapshot.
	finalEdges int64
	starts     *startPicker
}

// buildInputs generates the AM stand-in at the given scale and its mixed
// tape of `rounds` batches covering half the graph's edges.
func buildInputs(scale float64, rounds int, seed uint64) (*inputs, error) {
	d, err := gen.DatasetByAbbr("AM")
	if err != nil {
		return nil, err
	}
	g, err := d.Generate(scale, seed)
	if err != nil {
		return nil, fmt.Errorf("generating AM at scale %v: %w", scale, err)
	}
	// A batch larger than half the edges is shrunk by BuildWorkload, so
	// asking for E/2/rounds per round gives the longest tape it allows.
	w, err := gen.BuildWorkload(g, gen.UpdMixed, int(g.NumEdges())/2/rounds, rounds, seed)
	if err != nil {
		return nil, fmt.Errorf("building the update tape: %w", err)
	}
	in := &inputs{
		vertices: w.Initial.NumVertices(),
		rounds:   w.Rounds,
		batch:    w.BatchSize,
	}
	for _, e := range w.Initial.Edges() {
		in.initial = append(in.initial, bingo.Edge{Src: e.Src, Dst: e.Dst, Weight: float64(e.Bias)})
	}
	for _, u := range w.Updates {
		if u.Op == graph.OpInsert {
			in.tape = append(in.tape, bingo.Insert(u.Src, u.Dst, float64(u.Bias)))
		} else {
			in.tape = append(in.tape, bingo.Delete(u.Src, u.Dst))
		}
	}
	in.finalEdges = replayEdgeCount(in.initial, in.tape)
	in.starts = newStartPicker(in.vertices, in.initial)
	return in, nil
}

// startPicker draws query start vertices in proportion to their initial
// out-degree.
type startPicker struct {
	cum []uint64 // cum[v] = Σ out-degree of vertices 0..v
}

func newStartPicker(vertices int, edges []bingo.Edge) *startPicker {
	cum := make([]uint64, vertices)
	for _, e := range edges {
		cum[e.Src]++
	}
	for v := 1; v < vertices; v++ {
		cum[v] += cum[v-1]
	}
	return &startPicker{cum: cum}
}

func (p *startPicker) pick(r *bingo.Rand) bingo.VertexID {
	x := r.Uint64n(p.cum[len(p.cum)-1])
	return bingo.VertexID(sort.Search(len(p.cum), func(v int) bool { return p.cum[v] > x }))
}
