// Command perfbench is the repository's pinned benchmark. One seeded run
// generates its inputs with internal/gen, drives one workload against the
// public bingo API, checks the program's outputs, and prints every metric
// by name and unit; the last line of standard output is the result as one
// JSON object. See README.md for the workloads, the metrics and which layer
// moves which metric.
//
//	go run . -workload rounds -seed 1 -seconds 30 -trace 0
//	go run . -manifest > ../BENCHMARK.json
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings; only the workload, seed, run length and
// trace switch come from the command line the benchmark contract fixes.
type config struct {
	workload        string
	seed            uint64
	seconds         int
	trace           bool
	scale           float64       // AM stand-in size, as a share of the paper's graph
	tapeRounds      int           // rounds the tape is split into (rounds workload)
	length          int           // walk length
	queriesPerRound int           // single-walk queries after each round
	setups          int           // serving set-ups per live pass
	rate            float64       // offered updates per second (live-*)
	feedSize        int           // updates per Feed call (live-*)
	syncPeriod      time.Duration // Sync period (live-*)
	maxLate         time.Duration // lateness beyond which the generator fell behind
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "rounds", "workload: rounds, live-inproc or live-tcp")
	fl.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated graph, tape and query starts")
	fl.IntVar(&cfg.seconds, "seconds", runSeconds, "seconds one run measures")
	fl.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	manifestOnly := fl.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *manifestOnly {
		b, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	cfg.trace = trace == 1
	cfg.scale = 0.1
	cfg.tapeRounds = 10
	cfg.length = 80
	cfg.queriesPerRound = 200
	cfg.setups = 5
	cfg.rate = 5000
	cfg.feedSize = 25
	cfg.syncPeriod = 50 * time.Millisecond
	cfg.maxLate = time.Second
	known := false
	for _, w := range workloads {
		known = known || w.Name == cfg.workload
	}
	if !known || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", cfg.workload, cfg.seconds, trace)
		return 2
	}

	in, err := buildInputs(cfg.scale, cfg.tapeRounds, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	prov := provenance(cfg, in)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	window := time.Duration(cfg.seconds) * time.Second
	var res *outcome
	if cfg.trace {
		// Half the run untraced, half traced: the per-layer numbers come
		// from the traced half, and the difference of the two halves'
		// end-to-end values is the tracing overhead.
		plain := runWorkload(in, cfg, window/2, false)
		res = runWorkload(in, cfg, window/2, true)
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.problems = append(plain.problems, res.problems...)
		res.notes = append(plain.notes, res.notes...)
		for _, name := range overheadOf {
			res.layer["trace.overhead."+name] = res.e2e[name] - plain.e2e[name]
		}
	} else {
		res = runWorkload(in, cfg, window, false)
	}
	return report(stdout, stderr, cfg, res)
}

func runWorkload(in *inputs, cfg config, window time.Duration, traced bool) *outcome {
	switch cfg.workload {
	case "rounds":
		return runRounds(in, cfg, window, traced)
	case "live-inproc":
		return runLive(in, cfg, window, traced, false)
	default:
		return runLive(in, cfg, window, traced, true)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the run's notes and metrics table, then the result line.
// A run that failed a check prints the failures and no numbers.
func report(stdout, stderr io.Writer, cfg config, o *outcome) int {
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "note", n)
	}
	if o.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %d of %d calls failed; first: %v\n", o.failed, o.attempted, o.firstErr)
	}
	res := result{Correct: len(o.problems) == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]value{}}
	if !res.Correct {
		for _, p := range o.problems {
			fmt.Fprintln(stdout, "FAILED", p)
		}
	} else {
		o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(res.Attempted)
		specs, vals := endToEnd, o.e2e
		if cfg.trace {
			specs, vals = perLayer, o.layer
		}
		for _, s := range specs {
			v := vals[s.Name]
			res.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
			fmt.Fprintf(stdout, "%-34s %16.6g %s\n", s.Name, v, s.Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// provenance records what a result was measured on and with.
func provenance(cfg config, in *inputs) map[string]any {
	rev := os.Getenv("BENCH_GIT_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"git_rev":                rev,
		"source_sha256":          sourceDigest("."),
		"go":                     runtime.Version(),
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"workload":               cfg.workload,
		"seed":                   cfg.seed,
		"seconds":                cfg.seconds,
		"trace":                  cfg.trace,
		"dataset":                "AM",
		"scale":                  cfg.scale,
		"vertices":               in.vertices,
		"initial_edges":          len(in.initial),
		"tape_updates":           len(in.tape),
		"tape_rounds":            in.rounds,
		"walk_length":            cfg.length,
		"offered_updates_per_s":  cfg.rate,
		"feed_updates":           cfg.feedSize,
		"sync_period_ms":         cfg.syncPeriod.Milliseconds(),
		"serving_setups_per_run": cfg.setups,
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// result can be tied to the code it measured where no git revision is at
// hand. Dot-directories (build output, VCS data) are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
