// Command perfbench is the repository benchmark: it runs one workload
// against the hdindex facade (in process) or a separate hdserve process
// (over HTTP), checks every answer, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end set; with
// -trace 1 the run wraps spans around the calls into each layer, replays
// the query pipeline layer by layer on the same index files, writes the
// spans to .bench_build/spans/, and reports the per_layer set. Build and
// run it through run.sh from the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout root (holds BENCHMARK.json and perfbench/)")
		hdserve  = flag.String("hdserve", "", "hdserve binary for the serve workloads")
		workload = flag.String("workload", "", "workload name from BENCHMARK.json")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 45, "measured seconds of the run")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *root, *hdserve, *workload, *seed, *seconds, *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

// benchSpec is the part of BENCHMARK.json the run needs: which metrics
// to print in each mode, with their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// bench is the state one run shares across its phases.
type bench struct {
	cfg     workloadConfig
	k       int
	seed    int64
	seconds float64
	hdserve string
	work    string  // scratch directory of this run
	tr      *tracer // nil unless traced

	metrics map[string]float64
	notes   []string

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	problems  []string
}

// phase returns share of the run's measured seconds.
func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps the first few reasons.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.problem(format, args...)
}

// problem records an incorrect output that is not a single operation
// (a count mismatch, a replay divergence).
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func run(ctx context.Context, root, hdserve, workload string, seed int64, seconds float64, traced bool) error {
	specBuf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(specBuf, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	cfg, err := loadConfig(root)
	if err != nil {
		return err
	}
	wc, ok := cfg.Workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("seconds must be positive, got %v", seconds)
	}
	out := filepath.Join(root, ".bench_build")
	work := filepath.Join(out, "run", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{
		cfg: wc, k: cfg.K, seed: seed, seconds: seconds,
		hdserve: hdserve, work: work, metrics: map[string]float64{},
	}
	if traced {
		b.tr = newTracer()
	}
	switch workload {
	case "serve-audio100k-4shard":
		err = runServe(ctx, b)
	case "ingest-sift50k":
		err = runIngest(ctx, b)
	default:
		err = fmt.Errorf("workload %q is not implemented", workload)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if traced {
		dir := filepath.Join(out, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := b.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		b.note("spans: %s", path)
	}

	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	res := resultOut{
		Correct:   len(b.problems) == 0 && b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	var missing []string
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s measured no value for %v", workload, missing)
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}

	for _, n := range b.notes {
		fmt.Println("# " + n)
	}
	for _, p := range b.problems {
		fmt.Println("# INCORRECT: " + p)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %.6g\n", n, b.metrics[n])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
