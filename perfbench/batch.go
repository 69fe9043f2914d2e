package main

import (
	"encoding/json"
	"fmt"
	"time"

	"tramlib/internal/rng"
	"tramlib/tram"
)

// The alltoall and relay workloads run the Bale histogram kernel on the
// Dist backend: every worker sends a fixed number of uniformly random
// updates as fast as it can (closed loop, fixed work), and each update
// increments one slot of its destination worker's table.

const batchAppName = "perfbench.histogram"

// Item word layout. Bit 63 marks a stamped item, whose bits 16..62 carry
// the insert time (UnixNano mod 2^47, 39 hours); bits 0..15 hold the slot.
const (
	slotBits   = 16
	slotMask   = 1<<slotBits - 1
	stampBit   = uint64(1) << 63
	stampBits  = 47
	stampMask  = 1<<stampBits - 1
	stampEvery = 512 // one item in stampEvery carries its insert time
)

// batchParams travels to the worker processes, which rebuild the identical
// application from it.
type batchParams struct {
	Tram    tram.Config `json:"tram"`
	Updates int         `json:"updates"` // z, per worker
	Slots   int         `json:"slots"`
	Seed    uint64      `json:"seed"`
	Trace   bool        `json:"trace"`
	RunSpan int64       `json:"run_span"` // parent of the worker-side spans
}

// batchWorker is one worker's state in a worker process. Only its own
// goroutine touches it.
type batchWorker struct {
	table       []int64
	transit     []int64
	spans       []span
	firstStep   int64
	lastDeliver int64
}

type batchInstance struct {
	p       batchParams
	workers []batchWorker
}

// batchReport is one worker process's share of the results.
type batchReport struct {
	First       int       `json:"first"`
	Tables      [][]int64 `json:"tables"`
	Transit     []int64   `json:"transit"`
	Spans       []span    `json:"spans"`
	MaxRSSKiB   int64     `json:"max_rss_kib"`
	FirstStep   int64     `json:"first_step"`
	LastDeliver int64     `json:"last_deliver"`
}

func init() {
	tram.RegisterDist(batchAppName, func(raw []byte, proc tram.ProcID) (tram.DistApp, error) {
		var p batchParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return tram.DistApp{}, err
		}
		in := newBatchInstance(p)
		return tram.BindDist(tram.U64(), p.Tram, in.app(), func() []byte { return in.report(proc) })
	})
}

func newBatchInstance(p batchParams) *batchInstance {
	in := &batchInstance{p: p, workers: make([]batchWorker, p.Tram.Topo.TotalWorkers())}
	for i := range in.workers {
		in.workers[i].table = make([]int64, p.Slots)
	}
	return in
}

// update derives one histogram update from a random draw.
func update(u uint64, workers, slots int) (tram.WorkerID, uint64) {
	return tram.WorkerID(u % uint64(workers)), (u >> 32) % uint64(slots)
}

func (in *batchInstance) app() tram.App[uint64] {
	p, lib := in.p, tram.U64()
	W := p.Tram.Topo.TotalWorkers()
	return tram.App[uint64]{
		Deliver: func(ctx tram.Ctx, v uint64) {
			st := &in.workers[ctx.Self()]
			st.table[v&slotMask]++
			if v&stampBit == 0 {
				return
			}
			now := nowNanos()
			st.lastDeliver = now
			stamp := int64(v>>slotBits) & stampMask
			d := (now - stamp) & stampMask
			st.transit = append(st.transit, d)
			if p.Trace && len(st.spans) < maxSpansPerWorker {
				st.spans = append(st.spans, span{Name: "tram.transit", ID: workerSpanID(ctx.Self(), len(st.spans)), Parent: p.RunSpan, Item: stamp, Start: now - d, End: now})
			}
		},
		Spawn: func(w tram.WorkerID) (int, tram.KernelFunc) {
			r := rng.NewStream(p.Seed, int(w))
			st := &in.workers[w]
			return p.Updates, func(ctx tram.Ctx, i int) {
				if i == 0 {
					st.firstStep = nowNanos()
				}
				dst, slot := update(r.Uint64(), W, p.Slots)
				if i%stampEvery != 0 {
					lib.Insert(ctx, dst, slot)
				} else {
					t0 := nowNanos()
					stamp := t0 & stampMask
					lib.Insert(ctx, dst, slot|stampBit|uint64(stamp)<<slotBits)
					if p.Trace && len(st.spans) < maxSpansPerWorker {
						st.spans = append(st.spans, span{Name: "tram.Insert", ID: workerSpanID(ctx.Self(), len(st.spans)), Parent: p.RunSpan, Item: stamp, Start: t0, End: nowNanos()})
					}
				}
				if i == p.Updates-1 {
					t0 := nowNanos()
					lib.Flush(ctx)
					if p.Trace {
						st.spans = append(st.spans, span{Name: "tram.Flush", ID: workerSpanID(ctx.Self(), len(st.spans)), Parent: p.RunSpan, Start: t0, End: nowNanos()})
					}
				}
			}
		},
		FlushOnDone: true,
	}
}

func (in *batchInstance) report(proc tram.ProcID) []byte {
	topo := in.p.Tram.Topo
	first := int(topo.FirstWorkerOf(proc))
	rep := batchReport{First: first, MaxRSSKiB: maxRSSKiB()}
	for w := first; w < first+topo.WorkersPerProc; w++ {
		st := &in.workers[w]
		rep.Tables = append(rep.Tables, st.table)
		rep.Transit = append(rep.Transit, st.transit...)
		rep.Spans = append(rep.Spans, st.spans...)
		if rep.FirstStep == 0 || (st.firstStep != 0 && st.firstStep < rep.FirstStep) {
			rep.FirstStep = st.firstStep
		}
		rep.LastDeliver = max(rep.LastDeliver, st.lastDeliver)
	}
	b, _ := json.Marshal(rep) // plain slices and ints always marshal
	return b
}

// replayTables serially replays every worker's generator: the tables a
// correct run must produce.
func replayTables(p batchParams) [][]int64 {
	W := p.Tram.Topo.TotalWorkers()
	want := make([][]int64, W)
	for w := range want {
		want[w] = make([]int64, p.Slots)
	}
	for w := 0; w < W; w++ {
		r := rng.NewStream(p.Seed, w)
		for i := 0; i < p.Updates; i++ {
			dst, slot := update(r.Uint64(), W, p.Slots)
			want[dst][slot]++
		}
	}
	return want
}

// checkTables compares the reported tables with the replay element-wise
// and checks that they sum to W·z.
func checkTables(want, got [][]int64, total int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d tables, want %d", len(got), len(want))
	}
	var sum int64
	for w := range want {
		if len(got[w]) != len(want[w]) {
			return fmt.Errorf("worker %d: table has %d slots, want %d", w, len(got[w]), len(want[w]))
		}
		for s, v := range want[w] {
			if got[w][s] != v {
				return fmt.Errorf("worker %d slot %d: %d updates, want %d", w, s, got[w][s], v)
			}
			sum += got[w][s]
		}
	}
	if sum != total {
		return fmt.Errorf("tables sum to %d, want %d", sum, total)
	}
	return nil
}

// batchResult is one Dist run with its reports folded together.
type batchResult struct {
	m           tram.Metrics
	tables      [][]int64
	transit     []int64
	spans       []span
	maxRSSKiB   int64
	firstStep   int64
	lastDeliver int64
	start, end  int64
	cpu         time.Duration
}

// runBatch executes one Dist run and gathers the worker reports.
func runBatch(p batchParams) (batchResult, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return batchResult{}, err
	}
	cfg := p.Tram
	cfg.Dist.App = batchAppName
	cfg.Dist.Params = raw
	in := newBatchInstance(p)

	self0, kids0 := cpuTimes()
	res := batchResult{start: nowNanos()}
	res.m, err = tram.U64().Run(tram.Dist, cfg, in.app())
	res.end = nowNanos()
	self1, kids1 := cpuTimes()
	if err != nil {
		return batchResult{}, fmt.Errorf("dist run: %w", err)
	}
	res.cpu = self1 - self0 + kids1 - kids0
	res.tables = make([][]int64, cfg.Topo.TotalWorkers())
	for proc, blob := range res.m.Reports {
		var rep batchReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			return batchResult{}, fmt.Errorf("proc %d report: %w", proc, err)
		}
		for i, t := range rep.Tables {
			res.tables[rep.First+i] = t
		}
		res.transit = append(res.transit, rep.Transit...)
		res.spans = append(res.spans, rep.Spans...)
		res.maxRSSKiB = max(res.maxRSSKiB, rep.MaxRSSKiB)
		if res.firstStep == 0 || (rep.FirstStep != 0 && rep.FirstStep < res.firstStep) {
			res.firstStep = rep.FirstStep
		}
		res.lastDeliver = max(res.lastDeliver, rep.LastDeliver)
	}
	return res, nil
}
