package main

import "encoding/json"

// The tables below are the benchmark's contract: the workloads it runs and
// the metrics it prints, by name and unit. `perfbench -manifest` renders
// them as BENCHMARK.json, and TestManifestMatchesBenchmarkJSON keeps the
// committed file equal to them.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures.
const runSeconds = 30

var workloads = []workloadSpec{
	{"rounds", "the paper's 6.1 loop on one Engine: streamed Insert/Delete, ApplyBatch, DeepWalk from every vertex; core update paths and kernel only, no fabric"},
	{"live-inproc", "open-loop Feed/Sync beside closed-loop Query on 2 in-process shards: coordinator, crews, hub caches and hand-offs with no codec in the path"},
	{"live-tcp", "the live-inproc traffic through ServeRemote to 2 ServeShard daemons on loopback: the only workload where tcpgob frames block every hop, feed and barrier"},
}

func bound(b float64) *float64 { return &b }

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"job_s", "s", "lower", bound(0.25)},
	{"update_p50_us", "us", "lower", bound(0.25)},
	{"update_p90_us", "us", "lower", bound(0.25)},
	{"memory_bytes", "B", "lower", bound(0.05)},
	{"heap_bytes", "B", "lower", bound(0.25)},
	{"query_p50_ms", "ms", "lower", bound(0.25)},
	{"query_p99_ms", "ms", "lower", bound(0.25)},
	{"queries_per_s", "1/s", "higher", bound(0.25)},
	{"fresh_p50_ms", "ms", "lower", bound(0.25)},
	{"fresh_mean_ms", "ms", "lower", bound(0.25)},
	{"ok_frac", "ratio", "higher", bound(0.01)},
}

// tcpKinds are the tcpgob frame kinds the per-layer run breaks out.
var tcpKinds = []string{"walker", "walker_batch", "retire", "updates", "credit", "ack", "barrier", "view_req", "view_rep"}

// inprocKinds are the in-process fabric message kinds it breaks out.
var inprocKinds = []string{"walker", "updates", "barrier", "view"}

// overheadOf names the end-to-end metrics whose tracing overhead the
// traced run reports.
var overheadOf = []string{"job_s", "update_p50_us", "query_p50_ms", "queries_per_s", "fresh_p50_ms"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{Name: "core.insert_ns.p50", Unit: "ns", Better: "lower"},
		{Name: "core.delete_ns.p50", Unit: "ns", Better: "lower"},
		{Name: "core.batch_ns_per_update", Unit: "ns", Better: "lower"},
		{Name: "core.groups.dense", Unit: "count", Better: "lower"},
		{Name: "core.groups.one", Unit: "count", Better: "lower"},
		{Name: "core.groups.sparse", Unit: "count", Better: "lower"},
		{Name: "core.groups.regular", Unit: "count", Better: "lower"},
		{Name: "core.memory_bytes.start", Unit: "B", Better: "lower"},
		{Name: "walk.deepwalk_s", Unit: "s", Better: "lower"},
		{Name: "walk.steps_per_s", Unit: "1/s", Better: "higher"},
		{Name: "walk.kernel_rounds", Unit: "count", Better: "lower"},
		{Name: "walk.kernel_steps", Unit: "count", Better: "higher"},
		{Name: "walk.query_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "walk.query_ms.p99", Unit: "ms", Better: "lower"},
		{Name: "walk.hops_per_query", Unit: "count", Better: "higher"},
		{Name: "walk.transfer_ratio", Unit: "ratio", Better: "lower"},
		{Name: "walk.cache.local_hit_rate", Unit: "ratio", Better: "higher"},
		{Name: "walk.cache.remote_hits", Unit: "count", Better: "higher"},
		{Name: "walk.cache.stale", Unit: "count", Better: "lower"},
		{Name: "walk.barrier_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "walk.credit_stall_s", Unit: "s", Better: "lower"},
		{Name: "walk.shard_step_skew", Unit: "ratio", Better: "lower"},
	}
	for _, k := range tcpKinds {
		m = append(m,
			metricSpec{Name: "fabric.tcp.frames." + k, Unit: "count", Better: "lower"},
			metricSpec{Name: "fabric.tcp.bytes." + k, Unit: "B", Better: "lower"},
			metricSpec{Name: "fabric.tcp.bytes_per_frame." + k, Unit: "B", Better: "lower"})
	}
	m = append(m,
		metricSpec{Name: "fabric.tcp.frames_per_query", Unit: "count", Better: "lower"},
		metricSpec{Name: "fabric.tcp.bytes_per_query", Unit: "B", Better: "lower"})
	for _, k := range inprocKinds {
		m = append(m, metricSpec{Name: "fabric.inproc.msgs." + k, Unit: "count", Better: "lower"})
	}
	m = append(m,
		metricSpec{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
		metricSpec{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "gen.late_max_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "gen.feed_from_due_ms.p50", Unit: "ms", Better: "lower"},
		metricSpec{Name: "gen.feed_from_due_ms.p99", Unit: "ms", Better: "lower"},
		metricSpec{Name: "gen.offered_updates_per_s", Unit: "1/s", Better: "higher"},
		metricSpec{Name: "gen.achieved_updates_per_s", Unit: "1/s", Better: "higher"},
		metricSpec{Name: "tail.update_p99_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "tail.fresh_p90_ms", Unit: "ms", Better: "lower"})
	for _, name := range overheadOf {
		e := specOf(endToEnd, name)
		m = append(m, metricSpec{Name: "trace.overhead." + name, Unit: e.Unit, Better: e.Better})
	}
	return m
}

func specOf(specs []metricSpec, name string) metricSpec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	panic("perfbench: no metric " + name)
}

type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// manifestJSON renders the tables as the BENCHMARK.json document.
func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
