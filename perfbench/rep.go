package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tramlib/tram"
)

// repOpts configures one repetition.
type repOpts struct {
	seed  uint64
	trace bool
	scale float64 // work, relative to the benchmark's; tests shrink it
	dir   string  // socket, ring and trace files
	name  string  // trace file name
}

// A workload is the histogram kernel on one Dist configuration.
type workload struct {
	probe probeSpec
	cfg   func(sockDir string) tram.Config
}

// The workloads. Why each exists and which layers it stresses is recorded
// in README.md and BENCHMARK.json.
var workloads = map[string]workload{
	// Flat mesh over shm rings: cross-process batches and in-process SMP
	// delivery in the smallest topology that has both.
	"alltoall": {
		probe: probeSpec{g: 1024, producers: 2},
		cfg: func(sockDir string) tram.Config {
			cfg := tram.DefaultConfig(tram.SMP(1, 2, 2), tram.WPs)
			cfg.Dist.Transport = tram.TransportShm
			cfg.Dist.SockDir = sockDir
			return cfg
		},
	},
	// Node-leader routing over sockets: every cross-node item hops
	// worker → leader → leader → worker.
	"relay": {
		probe: probeSpec{g: 1024, producers: 1},
		cfg: func(sockDir string) tram.Config {
			cfg := tram.DefaultConfig(tram.SMP(2, 2, 1), tram.WPs)
			cfg.Dist.Transport = tram.TransportSocket
			cfg.Dist.Nodes = []int{0, 0, 1, 1}
			cfg.Dist.Hierarchical = true
			cfg.Dist.SockDir = sockDir
			return cfg
		},
	},
}

const (
	updatesPerWorker = 1 << 20
	slotsPerWorker   = 4096
)

func repMain(args []string) int {
	fs := flag.NewFlagSet("perfbench rep", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 1, "input seed")
	trace := fs.Int("trace", 0, "1: record spans and per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for run files and traces")
	index := fs.Int("index", 0, "repetition number, for file names")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench rep: unknown workload %q\n", *name)
		return 2
	}
	o := repOpts{seed: *seed, trace: *trace == 1, scale: 1, dir: *out,
		name: fmt.Sprintf("%s-seed%d-rep%d", *name, *seed, *index)}
	r := runRep(o, w)
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench rep: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	if r.Err != "" {
		return 1
	}
	return 0
}

// runRep prepares the run directory and runs one repetition of w.
func runRep(o repOpts, w workload) repResult {
	run := filepath.Join(o.dir, "run")
	if err := os.MkdirAll(run, 0o755); err != nil {
		return repResult{Env: hostEnv(), Err: err.Error()}
	}
	cpu0 := readCPUStat()
	r := batchRep(o, w)
	if steal, ok := stealShare(cpu0, readCPUStat()); ok && r.Err == "" {
		r.Info = map[string]float64{"steal_frac": steal}
	}
	r.Env = hostEnv()
	r.Traced = o.trace
	return r
}

func failed(err error) repResult { return repResult{Err: err.Error()} }

// batchRep is one repetition: a discarded warm-up run, then the measured
// run, the check, and, when traced, the probes.
func batchRep(o repOpts, w workload) repResult {
	tr := newTracer(o.trace)
	repSpan := tr.newID()
	repStart := nowNanos()
	cfg := w.cfg(filepath.Join(o.dir, "run"))
	p := batchParams{Tram: cfg, Updates: max(int(updatesPerWorker*o.scale), 1), Slots: slotsPerWorker, Seed: o.seed}

	// The first run in a process is slower than the rest; discard one.
	warm := p
	warm.Updates = max(p.Updates/8, 1)
	var err error
	tr.time(repSpan, "tram.Run.warmup", func(int64) { _, err = runBatch(warm) })
	if err != nil {
		return failed(fmt.Errorf("warm-up: %w", err))
	}

	p.Trace = o.trace
	p.RunSpan = tr.newID()
	res, err := runBatch(p)
	if err != nil {
		return failed(err)
	}
	tr.add(p.RunSpan, repSpan, "tram.Run", res.start, res.end)
	total := int64(cfg.Topo.TotalWorkers()) * int64(p.Updates)
	tr.time(repSpan, "check", func(int64) {
		err = checkTables(replayTables(p), res.tables, total)
		if err == nil && res.m.Delivered != total {
			err = fmt.Errorf("runtime delivered %d items, want %d", res.m.Delivered, total)
		}
	})
	if err != nil {
		return failed(fmt.Errorf("correctness: %w", err))
	}

	r := repResult{
		E2E: map[string]float64{
			"setup_s":         (res.m.Wall - res.m.Time).Seconds(),
			"items_per_s":     float64(total) / res.m.Time.Seconds(),
			"cpu_ns_per_item": float64(res.cpu.Nanoseconds()) / float64(total),
			"maxrss_mb":       float64(res.maxRSSKiB) / 1024,
		},
		Lat: res.transit,
	}
	if !o.trace {
		return r
	}
	r.Layer = rtLayers(res.m)
	r.Layer["dist.spawn_to_first_step_ms"] = float64(res.firstStep-res.start) / 1e6
	r.Layer["dist.quiesce_lag_ms"] = float64(res.end-res.lastDeliver) / 1e6
	// The worker processes recorded the insert, flush and transit spans.
	ins := durations(res.spans, "tram.Insert")
	transit := durations(res.spans, "tram.transit")
	r.Layer["tram.insert_ns.p50"] = nsQuantile(ins, 0.50, 1)
	r.Layer["tram.insert_ns.p99"] = nsQuantile(ins, 0.99, 1)
	r.Layer["tram.flush_ns.p99"] = nsQuantile(durations(res.spans, "tram.Flush"), 0.99, 1)
	r.Layer["tram.transit_us.p50"] = nsQuantile(transit, 0.50, 1e3)
	r.Layer["tram.transit_us.p99"] = nsQuantile(transit, 0.99, 1e3)

	ps := w.probe
	ps.scale = o.scale
	var layers map[string]float64
	tr.time(repSpan, "probes", func(id int64) {
		layers, err = runProbes(ps, filepath.Join(o.dir, "run"), tr, id)
	})
	if err != nil {
		return failed(err)
	}
	for k, v := range layers {
		r.Layer[k] = v
	}
	tr.add(repSpan, 0, "rep", repStart, nowNanos())
	path, err := writeTrace(filepath.Join(o.dir, "trace"), o.name, append(res.spans, tr.spans...))
	if err != nil {
		return failed(err)
	}
	r.Trace = path
	return r
}

// rtLayers derives the runtime's batch ratios from a run's counters.
func rtLayers(m tram.Metrics) map[string]float64 {
	batches := float64(max(m.Batches, 1))
	return map[string]float64{
		"rt.items_per_batch":   float64(m.Delivered-m.LocalDirect) / batches,
		"rt.full_frac":         float64(m.FullMsgs) / batches,
		"rt.deadline_frac":     float64(m.DeadlineFlushes) / batches,
		"rt.local_direct_frac": float64(m.LocalDirect) / float64(max(m.Delivered, 1)),
	}
}
