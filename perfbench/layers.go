package main

import (
	"runtime"

	"github.com/bingo-rw/bingo/internal/obs"
)

// layerReading is one reading of the counters the traced run differences
// across its measured window: the program's own obs registry (kernel,
// query and barrier histograms, fabric frame/byte/message counters) and
// the Go runtime's allocation and GC totals.
type layerReading struct {
	kernelRounds, kernelSteps int64
	queryHist, barrierHist    []int64
	tcpFrames, tcpBytes       []int64 // by tcpKinds, dir=tx
	inprocMsgs                []int64 // by inprocKinds
	mallocs, allocBytes       uint64
	gcPauseNs                 uint64
}

// readLayers takes a layerReading. It calls runtime.ReadMemStats, which
// stops the world briefly, so the untraced run never calls it inside its
// measured window.
func readLayers() layerReading {
	var r layerReading
	r.kernelRounds = obs.C("bingo_kernel_rounds_total").Load()
	r.kernelSteps = obs.C("bingo_kernel_steps_total").Load()
	qb := obs.H("bingo_query_seconds", "svc", "coord").Buckets()
	r.queryHist = qb[:]
	bb := obs.H("bingo_barrier_seconds").Buckets()
	r.barrierHist = bb[:]
	for _, k := range tcpKinds {
		r.tcpFrames = append(r.tcpFrames, obs.C("bingo_fabric_frames_total", "fabric", "tcp", "dir", "tx", "kind", k).Load())
		r.tcpBytes = append(r.tcpBytes, obs.C("bingo_fabric_bytes_total", "fabric", "tcp", "dir", "tx", "kind", k).Load())
	}
	for _, k := range inprocKinds {
		r.inprocMsgs = append(r.inprocMsgs, obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", k).Load())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs, r.allocBytes, r.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	return r
}

// delta returns what was recorded between the readings b and r (taken
// later), and acc adds such a delta to r; a workload with several measured
// windows sums their deltas.
func (r layerReading) delta(b layerReading) layerReading { return r.combine(b, -1) }
func (r layerReading) acc(d layerReading) layerReading   { return r.combine(d, 1) }

func (r layerReading) combine(o layerReading, sign int64) layerReading {
	vec := func(x, y []int64) []int64 {
		out := make([]int64, max(len(x), len(y)))
		for i := range out {
			if i < len(x) {
				out[i] += x[i]
			}
			if i < len(y) {
				out[i] += sign * y[i]
			}
		}
		return out
	}
	return layerReading{
		kernelRounds: r.kernelRounds + sign*o.kernelRounds,
		kernelSteps:  r.kernelSteps + sign*o.kernelSteps,
		queryHist:    vec(r.queryHist, o.queryHist),
		barrierHist:  vec(r.barrierHist, o.barrierHist),
		tcpFrames:    vec(r.tcpFrames, o.tcpFrames),
		tcpBytes:     vec(r.tcpBytes, o.tcpBytes),
		inprocMsgs:   vec(r.inprocMsgs, o.inprocMsgs),
		mallocs:      r.mallocs + uint64(sign)*o.mallocs,
		allocBytes:   r.allocBytes + uint64(sign)*o.allocBytes,
		gcPauseNs:    r.gcPauseNs + uint64(sign)*o.gcPauseNs,
	}
}

// fillLayers writes the per-layer metrics that come from a delta of
// readings. ops is the workload's unit of work (updates on rounds, queries
// on live-*) and queries the completed queries, which per-query fabric
// costs divide by.
func fillLayers(m map[string]float64, d layerReading, ops, queries float64) {
	m["walk.kernel_rounds"] = float64(d.kernelRounds)
	m["walk.kernel_steps"] = float64(d.kernelSteps)
	m["walk.query_ms.p50"] = histQuantile(d.queryHist, 0.50) / 1e6
	m["walk.query_ms.p99"] = histQuantile(d.queryHist, 0.99) / 1e6
	m["walk.barrier_ms.p50"] = histQuantile(d.barrierHist, 0.50) / 1e6
	var frames, bytes float64
	for i, k := range tcpKinds {
		f, b := float64(d.tcpFrames[i]), float64(d.tcpBytes[i])
		m["fabric.tcp.frames."+k] = f
		m["fabric.tcp.bytes."+k] = b
		m["fabric.tcp.bytes_per_frame."+k] = ratio(b, f)
		frames += f
		bytes += b
	}
	m["fabric.tcp.frames_per_query"] = ratio(frames, queries)
	m["fabric.tcp.bytes_per_query"] = ratio(bytes, queries)
	for i, k := range inprocKinds {
		m["fabric.inproc.msgs."+k] = float64(d.inprocMsgs[i])
	}
	m["runtime.mallocs_per_op"] = ratio(float64(d.mallocs), ops)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(d.allocBytes), ops)
	m["runtime.gc_pause_ms"] = float64(d.gcPauseNs) / 1e6
}

// heapInuse forces a collection and returns the bytes of in-use heap spans:
// what the run's live state holds.
func heapInuse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}
