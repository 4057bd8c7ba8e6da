// Command pqgrid runs the batch-width comparison grid of DESIGN.md §4c and
// emits one JSON document (BENCH_7.json in the repo root) recording, per
// (queue, batch-width) cell, throughput in MOps/s with a 95% CI and
// whole-run allocations per operation. The grid is the paper's fig-4a cell
// (uniform workload, uniform 32-bit keys) at a fixed thread count, crossed
// with the scalar path (width 1) and the batch path (width N).
//
// Repetitions are interleaved across widths — rep 1 of every cell runs
// before rep 2 of any cell — so a width-8-vs-width-1 speedup compares runs
// from the same commit under the same machine conditions, not two
// back-to-back blocks.
//
// Alongside the grid, the goroutine-churn cells (harness.RunChurn) measure
// the handle-lifecycle benchmark next to the fixed-handle numbers: M
// short-lived goroutines, M >> GOMAXPROCS, each doing a small op burst
// through the elastic pq.Pool versus the naive mutex-guarded baseline.
// The emitted churn section carries pool statistics (handles created,
// steals) and the ratio against the same queue's fixed-handle width-1
// cell. Disable with -churn=false.
//
// With reps >= 2 the grid asserts that no queue's width-8 cell is slower
// than its width-1 cell beyond the CI95 overlap — the batch path must not
// regress the scalar one — and exits nonzero on a violation.
//
//	pqgrid                      # full grid + churn -> BENCH_7.json
//	pqgrid -smoke               # tiny budget, stdout only (used by `make check`)
//	pqgrid -widths 1,4,8,16 -queues linden,multiq
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/harness"
	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/stats"
	"cpq/internal/workload"
)

// cellResult is one (queue, width) cell of the emitted grid.
type cellResult struct {
	Queue       string  `json:"queue"`
	BatchWidth  int     `json:"batch_width"`
	MOpsMean    float64 `json:"mops_mean"`
	MOpsCI95    float64 `json:"mops_ci95"`
	AllocsPerOp float64 `json:"allocs_per_op"` // whole-run mallocs (incl. prefill) / completed ops
	Ops         uint64  `json:"ops"`           // completed ops summed over reps
}

// churnCell is one (queue, lifecycle) cell of the goroutine-churn section.
type churnCell struct {
	Queue        string  `json:"queue"`
	Lifecycle    string  `json:"lifecycle"` // "pool" or "naive"
	Goroutines   int     `json:"goroutines"`
	BurstOps     int     `json:"burst_ops"`
	AbandonEvery int     `json:"abandon_every"`
	MOpsMean     float64 `json:"mops_mean"`
	MOpsCI95     float64 `json:"mops_ci95"`
	// HandlesCreated, PeakLive and Steals come from the last repetition
	// (they are deterministic given the config, modulo collector timing).
	HandlesCreated int    `json:"handles_created"`
	PeakLive       int    `json:"peak_live"`
	Steals         uint64 `json:"steals"`
	// VsFixedW1 is this cell's MOps/s over the same queue's fixed-handle
	// width-1 grid cell (the paper-model baseline); 0 when that cell is
	// not part of the grid.
	VsFixedW1 float64 `json:"vs_fixed_w1,omitempty"`
}

// report is the emitted JSON document.
type report struct {
	GitSHA     string       `json:"git_sha"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Figure     string       `json:"figure"` // benchmark cell, fig-4a configuration
	Threads    int          `json:"threads"`
	Prefill    int          `json:"prefill"`
	Duration   string       `json:"duration"`
	Reps       int          `json:"reps"`
	Generated  string       `json:"generated"` // RFC 3339
	Cells      []cellResult `json:"cells"`
	// Speedup maps queue -> width -> mops(width)/mops(1) for quick reading;
	// only present when width 1 is part of the grid.
	Speedup map[string]map[string]float64 `json:"speedup,omitempty"`
	// Churn is the goroutine-churn section (pool vs naive lifecycle);
	// absent with -churn=false.
	Churn []churnCell `json:"churn,omitempty"`
}

func main() {
	var (
		queuesF  = flag.String("queues", "globallock,multiq,multiq-s4-b8,klsm4096,linden", "queues to grid")
		widthsF  = flag.String("widths", "1,8", "batch widths to cross with the queue list (1 = scalar path)")
		threadsF = flag.Int("threads", 8, "worker goroutines (fig-4a t8 column)")
		duration = flag.Duration("duration", time.Second, "measurement duration per rep")
		reps     = flag.Int("reps", 3, "repetitions per cell (interleaved across widths)")
		prefill  = flag.Int("prefill", 100_000, "prefill size (default matches bench_test.go's fig-4a cells; paper scale: 1000000)")
		seed     = flag.Uint64("seed", 0, "base RNG seed (0 = default)")
		out      = flag.String("out", "BENCH_7.json", "output file (empty = stdout)")
		smoke    = flag.Bool("smoke", false, "CI smoke: tiny budget, one rep, stdout only")

		churnF       = flag.Bool("churn", true, "run the goroutine-churn cells (pool vs naive handle lifecycle)")
		churnQueuesF = flag.String("churn-queues", "klsm4096,multiq", "queues for the churn cells")
		churnGoros   = flag.Int("churn-goroutines", 100_000, "short-lived goroutines per churn cell")
		churnBurst   = flag.Int("churn-burst", 64, "ops per short-lived goroutine")
		churnAbandon = flag.Int("churn-abandon", 64, "every Nth goroutine abandons its handle (0 = never); the pool steals these back, the naive baseline leaks them")
		churnCap     = flag.Int("churn-cap", 0, "pool handle cap for the churn cells (0 = threads+64; headroom amortizes one collector cycle over many abandonments)")
	)
	flag.Parse()

	if *smoke {
		*duration, *reps, *prefill, *out = 30*time.Millisecond, 1, 2000, ""
		*churnGoros = 400
	}
	queueNames := cli.ExpandQueues(cli.ParseList(*queuesF))
	cli.ValidateQueues("pqgrid", queueNames)
	widths, err := cli.ParseThreads(*widthsF) // same "positive int list" grammar
	exitOn(err)
	for _, w := range widths {
		cli.ValidateBatch("pqgrid", w)
	}

	type cellKey struct {
		queue string
		width int
	}
	mops := map[cellKey][]float64{}
	allocs := map[cellKey][]float64{}
	ops := map[cellKey]uint64{}

	// Interleave: complete one rep of EVERY cell before starting the next
	// rep, so cross-width comparisons are same-conditions.
	for rep := 0; rep < *reps; rep++ {
		for _, name := range queueNames {
			for _, w := range widths {
				name, w := name, w
				cfg := harness.Config{
					NewQueue: func(t int) pq.Queue {
						q, err := cpq.NewQueue(name, cpq.Options{Threads: t})
						exitOn(err)
						return q
					},
					Threads:  *threadsF,
					Duration: *duration,
					Workload: workload.Uniform,
					KeyDist:  keys.Uniform32,
					Prefill:  *prefill,
					OpBatch:  w,
					Seed:     *seed + uint64(rep), // fresh streams per rep, same across cells
				}
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				res := harness.Run(cfg)
				runtime.ReadMemStats(&m1)
				k := cellKey{name, w}
				mops[k] = append(mops[k], res.MOps())
				if res.Ops > 0 {
					allocs[k] = append(allocs[k], float64(m1.Mallocs-m0.Mallocs)/float64(res.Ops))
				}
				ops[k] += res.Ops
				fmt.Fprintf(os.Stderr, "pqgrid: rep %d/%d %s width=%d: %.3f MOps/s\n",
					rep+1, *reps, name, w, res.MOps())
			}
		}
	}

	rep := report{
		GitSHA:     cli.GitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Figure:     "4a",
		Threads:    *threadsF,
		Prefill:    *prefill,
		Duration:   duration.String(),
		Reps:       *reps,
		Generated:  time.Now().UTC().Format(time.RFC3339),
	}
	base := map[string]float64{} // queue -> width-1 mean
	for _, name := range queueNames {
		for _, w := range widths {
			k := cellKey{name, w}
			s := stats.Summarize(mops[k])
			var a float64
			if as := allocs[k]; len(as) > 0 {
				a = stats.Mean(as)
			}
			rep.Cells = append(rep.Cells, cellResult{
				Queue: name, BatchWidth: w,
				MOpsMean: cli.Round3(s.Mean), MOpsCI95: cli.Round3(s.CI95),
				AllocsPerOp: cli.Round3(a), Ops: ops[k],
			})
			if w == 1 {
				base[name] = s.Mean
			}
		}
	}
	if len(base) > 0 {
		rep.Speedup = map[string]map[string]float64{}
		for _, c := range rep.Cells {
			if c.BatchWidth == 1 || base[c.Queue] <= 0 {
				continue
			}
			if rep.Speedup[c.Queue] == nil {
				rep.Speedup[c.Queue] = map[string]float64{}
			}
			rep.Speedup[c.Queue][fmt.Sprintf("w%d", c.BatchWidth)] =
				cli.Round3(c.MOpsMean / base[c.Queue])
		}
	}

	if *churnF {
		rep.Churn = runChurnCells(churnParams{
			queues:     cli.ExpandQueues(cli.ParseList(*churnQueuesF)),
			goroutines: *churnGoros,
			burst:      *churnBurst,
			abandon:    *churnAbandon,
			capHandles: *churnCap,
			slots:      *threadsF,
			prefill:    *prefill,
			reps:       *reps,
			seed:       *seed,
		}, base)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	exitOn(err)
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else {
		exitOn(os.WriteFile(*out, buf, 0o644))
		fmt.Fprintf(os.Stderr, "pqgrid: wrote %s\n", *out)
	}

	// Batch-path regression gate (DESIGN.md §4c): with real CIs available,
	// a width-8 cell whose interval lies entirely below the same queue's
	// width-1 interval is a regression of the batch path against the scalar
	// one. The report above is written regardless, so the failing artifact
	// survives for diagnosis. Single-rep runs (like -smoke) have CI95 = 0
	// and would flag ordinary noise, so the gate needs reps >= 2.
	if *reps >= 2 {
		w1 := map[string]cellResult{}
		for _, c := range rep.Cells {
			if c.BatchWidth == 1 {
				w1[c.Queue] = c
			}
		}
		failed := false
		for _, c := range rep.Cells {
			b, ok := w1[c.Queue]
			if !ok || c.BatchWidth != 8 {
				continue
			}
			if c.MOpsMean+c.MOpsCI95 < b.MOpsMean-b.MOpsCI95 {
				failed = true
				fmt.Fprintf(os.Stderr,
					"pqgrid: REGRESSION %s width-8 %.3f±%.3f MOps/s below width-1 %.3f±%.3f beyond CI95\n",
					c.Queue, c.MOpsMean, c.MOpsCI95, b.MOpsMean, b.MOpsCI95)
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}

// churnParams collects the churn section's knobs.
type churnParams struct {
	queues              []string
	goroutines, burst   int
	abandon, capHandles int
	slots               int
	prefill, reps       int
	seed                uint64
}

// runChurnCells runs the goroutine-churn cells: every (queue, lifecycle)
// pair, reps times, interleaved like the grid. base maps queue -> the
// fixed-handle width-1 mean for the vs_fixed_w1 ratio.
func runChurnCells(p churnParams, base map[string]float64) []churnCell {
	cli.ValidateQueues("pqgrid", p.queues)
	// Headroom above the working set: a starved Acquire blocks on a
	// collector cycle, so the cap decides how many abandonments one cycle
	// amortizes over. slots+1 would GC per abandonment.
	if p.capHandles <= 0 {
		p.capHandles = p.slots + 64
	}
	lifecycles := []string{"pool", "naive"}
	type key struct {
		queue, lifecycle string
	}
	mops := map[key][]float64{}
	last := map[key]harness.ChurnStats{}
	for rep := 0; rep < p.reps; rep++ {
		for _, name := range p.queues {
			for _, lc := range lifecycles {
				name := name
				st := harness.RunChurn(harness.ChurnConfig{
					NewQueue: func(t int) pq.Queue {
						q, err := cpq.NewQueue(name, cpq.Options{Threads: t})
						exitOn(err)
						return q
					},
					Slots:        p.slots,
					Goroutines:   p.goroutines,
					BurstOps:     p.burst,
					Workload:     workload.Uniform,
					KeyDist:      keys.Uniform32,
					Prefill:      p.prefill,
					Seed:         p.seed + uint64(rep),
					AbandonEvery: p.abandon,
					MaxHandles:   p.capHandles,
					Naive:        lc == "naive",
				})
				k := key{name, lc}
				mops[k] = append(mops[k], st.MOps())
				last[k] = st
				fmt.Fprintf(os.Stderr, "pqgrid: churn rep %d/%d %s %s: %.3f MOps/s (handles=%d steals=%d)\n",
					rep+1, p.reps, name, lc, st.MOps(), st.HandlesCreated, st.Steals)
			}
		}
	}
	var cells []churnCell
	for _, name := range p.queues {
		for _, lc := range lifecycles {
			k := key{name, lc}
			s := stats.Summarize(mops[k])
			st := last[k]
			c := churnCell{
				Queue: name, Lifecycle: lc,
				Goroutines: p.goroutines, BurstOps: p.burst, AbandonEvery: p.abandon,
				MOpsMean: cli.Round3(s.Mean), MOpsCI95: cli.Round3(s.CI95),
				HandlesCreated: st.HandlesCreated, PeakLive: st.PeakLive, Steals: st.Steals,
			}
			if b := base[name]; b > 0 {
				c.VsFixedW1 = cli.Round3(s.Mean / b)
			}
			cells = append(cells, c)
		}
	}
	return cells
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqgrid:", err)
		os.Exit(1)
	}
}
