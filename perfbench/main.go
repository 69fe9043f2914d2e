// Command perfbench is tramlib's end-to-end benchmark. It runs one workload
// for a given time, checks every run's output, and prints the metrics.
//
//	bash perfbench/run.sh --workload alltoall --seed 1 --seconds 15 --trace 0
//
// run.sh builds this package into .bench_build and runs it from the root of
// the checkout. Each measured repetition runs in a fresh child process
// (perfbench rep ...), because a process's getrusage figures for its
// children only grow; the parent aggregates the children's results into
// medians. With --trace 1 repetitions alternate between traced and
// untraced, and the per-layer metrics come from the traced ones. See
// README.md for the workloads and what each metric is expected to move.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"tramlib/tram"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints; perLayer the ones
// every traced run prints. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"cpu_ns_per_item", "ns"},
	{"maxrss_mb", "MB"},
}

var perLayer = []metricDef{
	{"tram.insert_ns.p50", "ns"},
	{"tram.insert_ns.p99", "ns"},
	{"tram.flush_ns.p99", "ns"},
	{"tram.transit_us.p50", "us"},
	{"tram.transit_us.p99", "us"},
	{"rt.items_per_batch", "count"},
	{"rt.full_frac", "ratio"},
	{"rt.deadline_frac", "ratio"},
	{"rt.local_direct_frac", "ratio"},
	{"shmem.sp_push_ns", "ns"},
	{"shmem.mp_push_ns", "ns"},
	{"wire.items_encode_ns_per_item", "ns"},
	{"wire.items_decode_ns_per_item", "ns"},
	{"wire.bundle_encode_ns_per_frame", "ns"},
	{"transport.shmring_ns_per_frame", "ns"},
	{"transport.shmring_gbps", "Gbit/s"},
	{"transport.socket_ns_per_frame", "ns"},
	{"transport.router_ns_per_frame", "ns"},
	{"transport.router_frames_per_bundle", "count"},
	{"serve.ack_us.p50", "us"},
	{"serve.ack_us.p99", "us"},
	{"serve.send_block_frac", "ratio"},
	{"dist.spawn_to_first_step_ms", "ms"},
	{"dist.quiesce_lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

const (
	// minReps is the fewest repetitions a run aggregates, whatever
	// --seconds says; a traced run needs two of each kind.
	minReps       = 3
	minTracedReps = 4
	// maxSeconds is the longest --seconds accepted and repTimeout bounds
	// one repetition, so a run ends inside three minutes even when a
	// repetition hangs.
	maxSeconds = 80
	repTimeout = 60 * time.Second
)

func main() {
	tram.Main()
	if len(os.Args) > 1 && os.Args[1] == "rep" {
		os.Exit(repMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// env is what two runs must share to be compared.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostEnv() env {
	return env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// repResult is one repetition, as a child prints it.
type repResult struct {
	Env    env                `json:"env"`
	Traced bool               `json:"traced"`
	Err    string             `json:"err,omitempty"`
	E2E    map[string]float64 `json:"e2e"`
	Layer  map[string]float64 `json:"layer,omitempty"`
	// Info holds figures that are reported but not gated.
	Info map[string]float64 `json:"info,omitempty"`
	// Lat holds the latency samples (ns) behind lat_p50_ms and lat_p99_ms;
	// a run pools them over its repetitions.
	Lat   []int64 `json:"lat,omitempty"`
	Trace string  `json:"trace,omitempty"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type benchOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: alltoall or relay")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "how long to keep starting repetitions, at most 80")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for run files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || *seconds > maxSeconds {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d is outside 1..%d\n", *seconds, maxSeconds)
		return 2
	}
	res, info, err := runReps(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		// A run that could not be measured or compared still ends with a
		// result line, one that reports no timings.
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res = benchOut{Attempted: max(res.Attempted, 1), Failed: max(res.Failed, 1), Metrics: map[string]metricOut{}}
	} else {
		ib, _ := json.Marshal(info) // maps of numbers and strings always marshal
		fmt.Printf("%s\n", ib)
	}
	b, _ := json.Marshal(res)
	fmt.Printf("%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// runReps starts repetitions in fresh child processes until the time is
// used, then aggregates them.
func runReps(name string, seed uint64, seconds time.Duration, trace bool, out string) (benchOut, map[string]any, error) {
	exe, err := os.Executable()
	if err != nil {
		return benchOut{}, nil, err
	}
	want := hostEnv()
	need := minReps
	if trace {
		need = minTracedReps
	}
	start := time.Now()
	cpu0 := readCPUStat()
	var reps []repResult
	res := benchOut{Correct: true, Metrics: map[string]metricOut{}}
	for i := 0; i < need || time.Since(start) < seconds; i++ {
		traced := trace && i%2 == 0
		r, err := spawnRep(exe, name, seed*1_000_003+uint64(i), traced, out, i)
		res.Attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d: %v\n", i, err)
			res.Failed++
			continue
		}
		if r.Env != want {
			return res, nil, fmt.Errorf("repetition %d ran under %+v, this process under %+v: refusing to compare", i, r.Env, want)
		}
		reps = append(reps, r)
	}
	info := map[string]any{"workload": name, "env": want, "reps": len(reps)}
	if steal, ok := stealShare(cpu0, readCPUStat()); ok {
		info["steal_frac"] = steal
	}
	if res.Failed > 0 {
		res.Correct = false
		return res, info, nil
	}
	res.Metrics, err = aggregate(reps, trace, info)
	return res, info, err
}

// aggregate reduces a run's repetitions to its metrics: the median over
// repetitions of each figure, except the latency quantiles, which come from
// the latency samples of every untraced repetition pooled. Traced runs
// report the per-layer metrics of their traced repetitions, and the
// traced-minus-untraced difference of every end-to-end metric as the
// tracing overhead. Everything else measured goes into info.
func aggregate(reps []repResult, trace bool, info map[string]any) (map[string]metricOut, error) {
	pick := func(traced bool, get func(repResult) map[string]float64) map[string][]float64 {
		vals := map[string][]float64{}
		for _, r := range reps {
			if r.Traced == traced {
				for k, v := range get(r) {
					vals[k] = append(vals[k], v)
				}
			}
		}
		return vals
	}
	medians := func(vals map[string][]float64) map[string]float64 {
		m := map[string]float64{}
		for k, v := range vals {
			m[k] = median(v)
		}
		return m
	}
	e2e := func(r repResult) map[string]float64 { return r.E2E }
	plain := pick(false, e2e)
	repInfo := func(r repResult) map[string]float64 { return r.Info }
	info["info"] = medians(pick(false, repInfo))
	if trace {
		info["traced_info"] = medians(pick(true, repInfo))
	}
	info["e2e_per_rep"] = plain
	var lat []int64
	for _, r := range reps {
		if !r.Traced {
			lat = append(lat, r.Lat...)
		}
	}
	defs := endToEnd
	vals := medians(plain)
	vals["lat_p50_ms"] = nsQuantile(lat, 0.50, 1e6)
	vals["lat_p99_ms"] = nsQuantile(lat, 0.99, 1e6)
	info["lat_samples"] = len(lat)
	if trace {
		traced := medians(pick(true, e2e))
		overhead := map[string]float64{}
		for k, v := range traced {
			overhead[k] = v - vals[k]
		}
		info["trace_overhead"] = overhead
		defs = perLayer
		layer := pick(true, func(r repResult) map[string]float64 { return r.Layer })
		vals = medians(layer)
		plainRate := median(plain["items_per_s"])
		vals["trace.overhead_pct"] = 100 * (plainRate - traced["items_per_s"]) / plainRate
		var traces []string
		for _, r := range reps {
			if r.Trace != "" {
				traces = append(traces, r.Trace)
			}
		}
		info["traces"] = traces
		info["layer_per_rep"] = layer
	}
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("no repetition measured %s", d.name)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// spawnRep runs one repetition in a child process and decodes the result
// it prints last. A repetition whose check failed comes back as an error.
func spawnRep(exe, name string, seed uint64, traced bool, out string, index int) (repResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "rep", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-trace", tr, "-out", out, "-index", strconv.Itoa(index))
	// The child and the Dist workers it spawns share a process group, so a
	// timeout kills them all.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	line, err := lastLine(&stdout)
	if err != nil {
		return repResult{}, errors.Join(runErr, err)
	}
	var r repResult
	if err := json.Unmarshal(line, &r); err != nil {
		return repResult{}, errors.Join(runErr, fmt.Errorf("decode result: %w", err))
	}
	if r.Err != "" {
		return repResult{}, errors.New(r.Err)
	}
	if runErr != nil {
		return repResult{}, runErr
	}
	return r, nil
}

func lastLine(r io.Reader) ([]byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	var last []byte
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last == nil {
		return nil, errors.New("repetition printed no result")
	}
	return last, nil
}
