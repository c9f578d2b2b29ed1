package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/bingo-rw/bingo"
)

// runRounds is the paper's §6.1 loop on one in-process Engine. A job builds
// the engine from the initial snapshot (one set-up sample), then for each
// round streams the first half of the round's updates through Insert/Delete
// one call at a time, applies the second half with ApplyBatch, and runs
// DeepWalk from every vertex with one worker per CPU; job time is the sum
// of those round times. After each round the engine answers
// queriesPerRound single 80-step walks from degree-drawn starts, timed
// apart from the job. A finished job is checked, and jobs repeat until
// window has passed.
func runRounds(in *inputs, cfg config, window time.Duration, traced bool) *outcome {
	o := newOutcome()
	var (
		setupS, jobS, freshMs, memBytes []float64
		updUs, insNs, delNs, qMs, dwS   []float64
		batchNs, batchUps, dwSteps      float64
		qHops, updates                  float64
		qTime                           time.Duration
		layers                          layerReading
		eng                             *bingo.Engine
	)
	half := in.batch / 2
	r := bingo.NewRand(cfg.seed ^ 0x9e3779b97f4a7c15)
	start := time.Now()
	for job := 0; job == 0 || time.Since(start) < window; job++ {
		t0 := time.Now()
		var err error
		eng, err = bingo.FromEdges(in.initial)
		if err != nil {
			o.fail("FromEdges: %v", err)
			return o
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if traced && job == 0 {
			o.layer["core.memory_bytes.start"] = float64(eng.Memory())
		}

		var before layerReading
		if traced {
			before = readLayers()
		}
		var jobTime time.Duration
		for rd := 0; rd < in.rounds; rd++ {
			round := in.tape[rd*in.batch : (rd+1)*in.batch]
			roundStart := time.Now()
			for _, u := range round[:half] {
				t := time.Now()
				var err error
				if u.Op == bingo.OpInsert {
					err = eng.Insert(u.Src, u.Dst, u.Weight)
				} else {
					err = eng.Delete(u.Src, u.Dst)
				}
				d := time.Since(t)
				o.call(err, "streamed update")
				updUs = append(updUs, float64(d)/1e3)
				if u.Op == bingo.OpInsert {
					insNs = append(insNs, float64(d))
				} else {
					delNs = append(delNs, float64(d))
				}
			}
			t := time.Now()
			_, err := eng.ApplyBatch(round[half:])
			batchNs += float64(time.Since(t))
			batchUps += float64(len(round) - half)
			o.call(err, "ApplyBatch")
			freshMs = append(freshMs, float64(time.Since(roundStart))/1e6)
			updates += float64(len(round))

			t = time.Now()
			res := eng.DeepWalk(bingo.WalkOptions{
				Length: cfg.length, Workers: runtime.NumCPU(),
				Seed: cfg.seed + uint64(job*in.rounds+rd),
			})
			dwS = append(dwS, time.Since(t).Seconds())
			dwSteps += float64(res.Steps)
			if res.Walkers != eng.NumVertices() {
				o.problem("round %d: DeepWalk ran %d walkers over %d vertices", rd, res.Walkers, eng.NumVertices())
			}
			jobTime += time.Since(roundStart)

			qStart := time.Now()
			for q := 0; q < cfg.queriesPerRound; q++ {
				s := in.starts.pick(r)
				t := time.Now()
				res := eng.DeepWalk(bingo.WalkOptions{Length: cfg.length, Starts: []bingo.VertexID{s}, Seed: r.Uint64()})
				qMs = append(qMs, float64(time.Since(t))/1e6)
				o.attempted++
				if res.Walkers != 1 || res.Steps > int64(cfg.length) {
					o.problem("query from %d: %d walkers, %d steps", s, res.Walkers, res.Steps)
				}
				qHops += float64(res.Steps)
			}
			qTime += time.Since(qStart)
		}
		jobS = append(jobS, jobTime.Seconds())
		if traced {
			layers = layers.acc(readLayers().delta(before))
		}

		memBytes = append(memBytes, float64(eng.Memory()))
		if err := eng.CheckInvariants(); err != nil {
			o.problem("job %d: CheckInvariants: %v", job, err)
		}
		if got := eng.NumEdges(); got != in.finalEdges {
			o.problem("job %d: %d edges after the tape, sequential replay gives %d", job, got, in.finalEdges)
		}
		if len(o.problems) > 0 {
			return o
		}
	}

	fillLatencies(o, updUs, qMs, freshMs)
	o.e2e["setup_s"] = median(setupS)
	o.e2e["job_s"] = median(jobS)
	o.e2e["memory_bytes"] = median(memBytes)
	o.e2e["queries_per_s"] = float64(len(qMs)) / qTime.Seconds()
	o.e2e["heap_bytes"] = heapInuse()
	runtime.KeepAlive(eng)
	o.note("rounds: %d jobs of %d rounds × %d updates; %d streamed calls, %d round samples, %d queries",
		len(jobS), in.rounds, in.batch, len(updUs), len(freshMs), len(qMs))

	if traced {
		st := eng.Stats()
		o.layer["core.insert_ns.p50"] = median(insNs)
		o.layer["core.delete_ns.p50"] = median(delNs)
		o.layer["core.batch_ns_per_update"] = ratio(batchNs, batchUps)
		o.layer["core.groups.dense"] = float64(st.DenseGroups)
		o.layer["core.groups.one"] = float64(st.OneElementGroups)
		o.layer["core.groups.sparse"] = float64(st.SparseGroups)
		o.layer["core.groups.regular"] = float64(st.RegularGroups)
		var dwTotal float64
		for _, s := range dwS {
			dwTotal += s
		}
		o.layer["walk.deepwalk_s"] = median(dwS)
		o.layer["walk.steps_per_s"] = ratio(dwSteps, dwTotal)
		o.layer["walk.hops_per_query"] = ratio(qHops, float64(len(qMs)))
		fillLayers(o.layer, layers, updates, 0)
	}
	return o
}

// outcome is what one pass of a workload produced.
type outcome struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	problems          []string // failed correctness checks
	notes             []string // sample counts and other provenance
	firstErr          error
}

// fillLatencies writes the latency metrics every workload reports from its
// update-call, query and freshness samples (which it sorts). The update
// p99 and freshness p90 go to the per-layer metrics: on a saturated 2-core
// box they are set by goroutine scheduling and GC, and spread more from run
// to run than any end-to-end bound allows (see README.md).
func fillLatencies(o *outcome, updUs, qMs, freshMs []float64) {
	o.e2e["fresh_mean_ms"] = mean(freshMs)
	up := percentiles(updUs, 50, 90, 99)
	qp := percentiles(qMs, 50, 99)
	fp := percentiles(freshMs, 50, 90)
	o.e2e["update_p50_us"], o.e2e["update_p90_us"], o.layer["tail.update_p99_us"] = up[0], up[1], up[2]
	o.e2e["query_p50_ms"], o.e2e["query_p99_ms"] = qp[0], qp[1]
	o.e2e["fresh_p50_ms"], o.layer["tail.fresh_p90_ms"] = fp[0], fp[1]
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// call counts one attempted call into the program and its failure, if any.
func (o *outcome) call(err error, what string) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("%s: %w", what, err)
		}
	}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// fail records a call whose failure stops the workload.
func (o *outcome) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	o.problem(format, args...)
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}
