// Command pqbench runs the paper's throughput benchmark and prints one
// table per cell: thread count vs. queue implementation, in MOps/s with
// 95% confidence intervals over repeated runs.
//
// Regenerate a specific paper figure:
//
//	pqbench -figure 1                 # Figure 1 / 4a: uniform workload, uniform 32-bit keys
//	pqbench -figure 4e -duration 10s -reps 10
//
// or specify the cell explicitly:
//
//	pqbench -workload split -keys ascending -threads 1,2,4,8 \
//	        -queues klsm128,klsm256,klsm4096,linden,spray,multiq,globallock
//
// The -queues list accepts aliases: "paper" (the seven variants above),
// "engineered" (seed multiq vs. the engineered multiq-s4-b8 vs. klsm4096)
// and "klsm" (the paper's three relaxation settings):
//
//	pqbench -queues engineered -threads 8
//	pqbench -queues klsm -threads 8
//
// With -batch N the workers issue their operations through the batch API
// (InsertN/DeleteMinN, DESIGN.md §4c) in groups of N; MOps/s stays
// comparable across widths because a batch of N counts as N operations.
//
// The defaults use a short duration and few repetitions so a full sweep
// stays laptop-friendly; the paper's setup corresponds to -duration 10s
// -reps 10 -prefill 1000000.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/harness"
	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/stats"
	"cpq/internal/telemetry"
	"cpq/internal/workload"
)

func main() {
	var (
		figure    = flag.String("figure", "", "paper figure to regenerate (1, 2, 3, 4a-4h, 8a-8c); overrides -workload/-keys")
		workloadF = flag.String("workload", "uniform", "workload: uniform, split, alternating")
		keysF     = flag.String("keys", "uniform32", "key distribution: uniform32, uniform16, uniform8, ascending, descending")
		queuesF   = flag.String("queues", "", "comma-separated queue list; aliases: paper, engineered, klsm (default: the paper's seven variants)")
		threadsF  = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		duration  = flag.Duration("duration", time.Second, "measurement duration per run (paper: 10s)")
		reps      = flag.Int("reps", 3, "repetitions per cell (paper: 10)")
		prefill   = flag.Int("prefill", harness.DefaultPrefill, "prefill size (paper: 1000000)")
		seed      = flag.Uint64("seed", 0, "base RNG seed (0 = default)")
		pin       = flag.Bool("pin", false, "lock worker goroutines to OS threads")
		batch     = flag.Int("batch", 1, "operation batch width: route inserts/deletes through InsertN/DeleteMinN in batches of this size (1 = scalar; see DESIGN.md §4c)")
		altBatch  = flag.Int("altbatch", 1, "phase length for the alternating workload (Appendix F); formerly -batch")
		opsMode   = flag.Int("ops", 0, "latency mode: run this many ops per thread instead of a fixed duration")
		machine   = flag.String("machine", "localhost", "machine label; the paper's hosts (mars, saturn, ceres, pluto) preset the thread sweep of their figures")
		csvOut    = flag.Bool("csv", false, "emit CSV (threads,queue,mops,ci) instead of a table")
		markdown  = flag.Bool("markdown", false, "emit a markdown table instead of plain text")
		plot      = flag.Bool("plot", false, "also render an ASCII chart of throughput vs threads (like the paper's figures)")
		telemF    = flag.Bool("telemetry", false, "collect queue-internals counters and latency histograms; prints one section per cell after the table (see DESIGN.md §5)")
		durableF  = flag.Bool("durable", false, "durable mode: benchmark the WAL tier, group commit vs the fsync-per-op naive baseline, and write -out (DESIGN.md §8)")
		durDir    = flag.String("durable-dir", "", "durable mode: log directory (default ./pqbench-durable.tmp, removed afterward)")
		durWin    = flag.Duration("commit-window", 0, "durable mode: group-commit dally window (0 = commit cohorts as they form)")
		snapEvF   = flag.Int("snap-every", 0, "durable mode: snapshot cadence in logged ops per queue (0 = final snapshot only)")
		segBytesF = flag.Int("seg-bytes", 0, "durable mode: WAL segment size in bytes (0 = default 1 MiB; also the mmap preallocation unit)")
		backendF  = flag.String("wal-backend", "", `durable mode: store backend "mmap", "file", or empty for the platform default`)
		recoverF  = flag.Bool("recover", false, "recovery mode: measure the cold-start replay rate (M items/s) against WAL tail length; adds rec: cells to -out (combine with -durable for one combined report)")
		recAgesF  = flag.String("recover-ages", "0,100000", "recover mode: comma-separated snapshot ages (WAL records logged since the last snapshot at the crash point)")
		recItems  = flag.Int("recover-items", 200000, "recover mode: live items captured by the snapshot at the crash point")
		outF      = flag.String("out", "BENCH_10.json", "durable/recover mode: JSON report path (empty = print table only)")
	)
	prof := cli.NewProfiler(flag.CommandLine)
	flag.Parse()
	telemetry.Enabled = *telemF
	stopProf, err := prof.Start()
	exitOn(err)
	defer stopProf()

	wl, err := workload.Parse(*workloadF)
	exitOn(err)
	kd, err := keys.Parse(*keysF)
	exitOn(err)
	cellID := ""
	if *figure != "" {
		cell, err := cli.FigureByID(*figure)
		exitOn(err)
		wl, kd, cellID = cell.Workload, cell.KeyDist, cell.ID
	}
	threads, err := cli.ParseThreads(*threadsF)
	exitOn(err)
	if m, ok := cli.MachineByName(*machine); ok && !flagSet("threads") {
		threads = m.Threads // paper-machine preset, unless -threads overrides
	}
	queueNames := cpq.PaperNames()
	if *durableF && *queuesF == "" {
		// Durable cells pay a real fsync tax; default to a small cross-
		// family set instead of the paper's seven.
		queueNames = []string{"multiq-s4-b8", "klsm256", "linden"}
	}
	if *queuesF != "" {
		queueNames = cli.ExpandQueues(cli.ParseList(*queuesF))
	}
	cli.ValidateQueues("pqbench", queueNames) // validate before burning benchmark time
	cli.ValidateBatch("pqbench", *batch)
	cli.ValidateBatch("pqbench", *altBatch)
	cli.ValidateSnapEvery("pqbench", *snapEvF)
	cli.ValidateSegBytes("pqbench", *segBytesF)
	cli.ValidateWALBackend("pqbench", *backendF)

	if *durableF || *recoverF {
		if !*durableF && *queuesF == "" {
			// Recover-only runs share durable mode's small default set.
			queueNames = []string{"multiq-s4-b8", "klsm256", "linden"}
		}
		dir := *durDir
		if dir == "" {
			dir = "pqbench-durable.tmp"
		}
		exitOn(os.MkdirAll(dir, 0o755))
		defer os.RemoveAll(dir)
		dcfg := durConfig{
			window: *durWin, snapEvery: *snapEvF,
			segBytes: *segBytesF, backend: *backendF,
		}
		var recCells []recCell
		if *recoverF {
			ages, err := parseAges(*recAgesF)
			exitOn(err)
			recCells = runRecoverTable(queueNames, ages, *recItems, *reps, *seed, dcfg, dir, *markdown)
		}
		if *durableF {
			pre := *prefill
			if !flagSet("prefill") {
				// The default 10^6 prefill would log a million inserts before
				// the first measured op; 10^4 keeps the WAL tax visible and
				// the run short.
				pre = 10_000
			}
			runDurableTable(queueNames, threads, wl, kd,
				*duration, *reps, pre, *batch, *seed, dcfg, dir, *outF, *markdown, recCells)
		} else if *outF != "" {
			writeDurReport(*outF, durReport{
				Mode: "recover", Threads: 1, Reps: *reps,
				Workload: wl.String(), KeyDist: kd.String(),
				Recover: recCells,
			})
		}
		return
	}

	header := fmt.Sprintf("# machine=%s workload=%s keys=%s prefill=%d duration=%v reps=%d",
		*machine, wl, kd, *prefill, *duration, *reps)
	if *batch > 1 {
		header += fmt.Sprintf(" batch=%d", *batch)
	}
	if cellID != "" {
		header = fmt.Sprintf("# figure %s  %s", cellID, header[2:])
	}
	fmt.Println(header)

	var table cli.Table
	row := []string{"threads"}
	for _, name := range queueNames {
		row = append(row, name)
	}
	table.AddRow(row...)
	curves := map[string][]float64{}
	type telemEntry struct {
		threads int
		queue   string
		ops     uint64
		snap    telemetry.Snapshot
	}
	var telemEntries []telemEntry
	for _, p := range threads {
		row := []string{fmt.Sprintf("%d", p)}
		for _, name := range queueNames {
			name := name
			cfg := harness.Config{
				NewQueue: func(t int) pq.Queue {
					q, err := cpq.NewQueue(name, cpq.Options{Threads: t})
					exitOn(err)
					return q
				},
				Threads:   p,
				Duration:  *duration,
				Workload:  wl,
				KeyDist:   kd,
				Prefill:   *prefill,
				BatchSize: *altBatch,
				OpBatch:   *batch,
				Seed:      *seed,
				Pin:       *pin,
			}
			if *opsMode > 0 {
				// Latency mode: fixed op count; report elapsed time and
				// sampled per-op latency percentiles.
				res := harness.RunOps(cfg, *opsMode)
				row = append(row, fmt.Sprintf("%.3fs p50=%.0fns p99=%.0fns",
					res.Duration.Seconds(), res.LatencyP50, res.LatencyP99))
				curves[name] = append(curves[name], res.MOps())
				if res.Telemetry != nil {
					telemEntries = append(telemEntries,
						telemEntry{p, name, res.Ops, *res.Telemetry})
				}
			} else {
				s := harness.RunRepeated(cfg, *reps)
				row = append(row, fmt.Sprintf("%.3f ±%.3f", s.Throughput.Mean, s.Throughput.CI95))
				curves[name] = append(curves[name], s.Throughput.Mean)
				if s.Telemetry != nil {
					var ops uint64
					for _, r := range s.Results {
						ops += r.Ops
					}
					telemEntries = append(telemEntries,
						telemEntry{p, name, ops, *s.Telemetry})
				}
			}
		}
		table.AddRow(row...)
	}
	switch {
	case *csvOut:
		fmt.Println("threads,queue,mops,ci95")
		for i, p := range threads {
			for j, name := range queueNames {
				_ = i
				fmt.Printf("%d,%s,%s\n", p, name, csvCell(table, i+1, j+1))
			}
		}
	case *markdown:
		fmt.Print(table.Markdown())
	default:
		fmt.Print(table.String())
	}
	fmt.Println("# cells are MOps/s (insertions+deletions per second / 1e6), mean ±95% CI")
	if len(telemEntries) > 0 {
		fmt.Println("\n# telemetry (counters summed over reps; rates are per completed op; see DESIGN.md §5)")
		for _, e := range telemEntries {
			fmt.Printf("## threads=%d queue=%s ops=%d\n", e.threads, e.queue, e.ops)
			fmt.Print(e.snap.Table("  ", e.ops))
			fmt.Print(e.snap.LatencySummary("  "))
		}
	}
	if *plot {
		chart := cli.NewPlot(header, threads)
		chart.XLabel, chart.YLabel = "threads", "MOps/s"
		for _, name := range queueNames {
			chart.AddSeries(name, curves[name])
		}
		fmt.Println()
		fmt.Print(chart.String())
	}
}

// durCell is one durable-mode grid cell of the BENCH_9.json report. The
// queue name carries the mode prefix ("dur:" group commit, "dur-naive:"
// fsync-per-op), so pqtrend diffs durable cells across reports exactly
// like it diffs "net:" socket cells — by queue string.
type durCell struct {
	Queue       string  `json:"queue"`
	BatchWidth  int     `json:"batch_width"`
	MOpsMean    float64 `json:"mops_mean"`
	MOpsCI95    float64 `json:"mops_ci95"`
	Ops         uint64  `json:"ops"`
	FsyncsPerOp float64 `json:"fsyncs_per_op"`
	WALRecords  uint64  `json:"wal_records"`
	WALFsyncs   uint64  `json:"wal_fsyncs"`
	Snapshots   uint64  `json:"snapshots"`
}

// recCell is one recovery-rate cell: how fast a cold process rebuilds a
// queue from a store crashed at a given snapshot age (WAL records logged
// since the last snapshot). The rate counts every recovered item —
// snapshot items and replayed tail records alike — per wall second of
// store-open plus replay plus rebuild.
type recCell struct {
	Queue       string  `json:"queue"` // "rec:" + registry name
	SnapshotAge int     `json:"snapshot_age"`
	Items       int     `json:"items"` // total items recovered per rep
	MItemsMean  float64 `json:"mitems_mean"`
	MItemsCI95  float64 `json:"mitems_ci95"`
	MillisMean  float64 `json:"millis_mean"`
}

// durReport is the BENCH_10.json document: the same envelope as the
// socket report (BENCH_8.json) with mode "durable" (or "recover"), WAL
// accounting per throughput cell, and the recovery-rate curve.
type durReport struct {
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Figure     string    `json:"figure,omitempty"`
	Mode       string    `json:"mode"`
	Threads    int       `json:"threads"`
	Workload   string    `json:"workload"`
	KeyDist    string    `json:"key_dist"`
	Prefill    int       `json:"prefill"`
	Duration   string    `json:"duration"`
	Reps       int       `json:"reps"`
	Generated  string    `json:"generated"`
	Cells      []durCell `json:"cells,omitempty"`
	Recover    []recCell `json:"recover,omitempty"`
}

// durConfig carries the durable-tier tuning flags shared by the
// throughput and recovery modes.
type durConfig struct {
	window    time.Duration
	snapEvery int
	segBytes  int
	backend   string
}

// writeDurReport stamps the environment fields and writes the report.
func writeDurReport(out string, doc durReport) {
	doc.GitSHA = cli.GitSHA()
	doc.GoVersion = runtime.Version()
	doc.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.NumCPU = runtime.NumCPU()
	doc.Generated = time.Now().UTC().Format(time.RFC3339)
	buf, err := json.MarshalIndent(doc, "", "  ")
	exitOn(err)
	buf = append(buf, '\n')
	exitOn(os.WriteFile(out, buf, 0o644))
	fmt.Fprintf(os.Stderr, "pqbench: wrote %s\n", out)
}

// parseAges parses the -recover-ages list ("0,100000").
func parseAges(s string) ([]int, error) {
	var ages []int
	for _, f := range cli.ParseList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid -recover-ages entry %q (want a non-negative op count)", f)
		}
		ages = append(ages, n)
	}
	if len(ages) == 0 {
		return nil, fmt.Errorf("-recover-ages is empty")
	}
	return ages, nil
}

// runDurableTable is the -durable mode: a threads × queue table where
// every cell runs the throughput harness twice over a durable-wrapped
// queue — once with group commit, once with the naive fsync-per-op
// baseline — on a real file-backed WAL. Cells report MOps/s and
// fsyncs per logged record; the JSON report carries the cells of the
// largest thread count (the shape BENCH_8.json uses), so the grouping
// win at full producer count is what the trend gate watches.
func runDurableTable(queueNames []string, threads []int,
	wl workload.Kind, kd keys.Distribution,
	duration time.Duration, reps, prefill, batch int, seed uint64,
	cfg durConfig, dir, out string, markdown bool, recCells []recCell) {
	fmt.Printf("# durable workload=%s keys=%s prefill=%d duration=%v reps=%d batch=%d window=%v backend=%s\n",
		wl, kd, prefill, duration, reps, batch, cfg.window, backendLabel(cfg.backend))

	var table cli.Table
	head := []string{"threads"}
	for _, name := range queueNames {
		head = append(head, "dur:"+name, "dur-naive:"+name)
	}
	table.AddRow(head...)

	var ctr atomic.Uint64
	var jsonCells []durCell
	maxP := threads[len(threads)-1]
	for _, p := range threads {
		row := []string{fmt.Sprintf("%d", p)}
		for _, name := range queueNames {
			name := name
			for _, naive := range []bool{false, true} {
				var mu sync.Mutex
				var queues []*durable.Queue
				cfg := harness.Config{
					NewQueue: func(t int) pq.Queue {
						// A fresh directory per construction: a rep must
						// not replay the previous rep's survivors.
						sub := filepath.Join(dir, fmt.Sprintf("q%06d", ctr.Add(1)))
						q, err := cpq.NewQueue(name, cpq.Options{
							Threads: t,
							Durable: &cpq.DurableOptions{
								Dir:               sub,
								GroupCommitWindow: cfg.window,
								SnapshotEvery:     cfg.snapEvery,
								SegmentBytes:      cfg.segBytes,
								Backend:           cfg.backend,
								Naive:             naive,
							},
						})
						exitOn(err)
						mu.Lock()
						queues = append(queues, q.(*durable.Queue))
						mu.Unlock()
						return q
					},
					Threads:  p,
					Duration: duration,
					Workload: wl,
					KeyDist:  kd,
					Prefill:  prefill,
					OpBatch:  batch,
					Seed:     seed,
				}
				s := harness.RunRepeated(cfg, reps)
				var st durable.Stats
				for _, dq := range queues {
					if err := dq.Err(); err != nil {
						exitOn(err)
					}
					qs := dq.Stats()
					st.Records += qs.Records
					st.Fsyncs += qs.Fsyncs
					st.Snapshots += qs.Snapshots
				}
				fpo := 0.0
				if st.Records > 0 {
					fpo = float64(st.Fsyncs) / float64(st.Records)
				}
				row = append(row, fmt.Sprintf("%.3f ±%.3f f=%.3f",
					s.Throughput.Mean, s.Throughput.CI95, fpo))
				if p == maxP {
					prefix := "dur:"
					if naive {
						prefix = "dur-naive:"
					}
					var ops uint64
					for _, r := range s.Results {
						ops += r.Ops
					}
					// fsyncs_per_op divides by harness ops (a batch of N
					// counts as N), so the cell is comparable across batch
					// widths; f in the table is per logged record.
					perOp := 0.0
					if ops > 0 {
						perOp = float64(st.Fsyncs) / float64(ops)
					}
					jsonCells = append(jsonCells, durCell{
						Queue: prefix + name, BatchWidth: batch,
						MOpsMean: cli.Round3(s.Throughput.Mean), MOpsCI95: cli.Round3(s.Throughput.CI95),
						Ops: ops, FsyncsPerOp: cli.Round3(perOp),
						WALRecords: st.Records, WALFsyncs: st.Fsyncs,
						Snapshots: st.Snapshots,
					})
				}
			}
		}
		table.AddRow(row...)
	}
	if markdown {
		fmt.Print(table.Markdown())
	} else {
		fmt.Print(table.String())
	}
	fmt.Println("# cells are MOps/s mean ±95% CI; f = fsyncs per logged WAL record (group commit amortizes, naive pins f=1)")

	if out == "" {
		return
	}
	figure := ""
	if wl == workload.Uniform && kd == keys.Uniform32 {
		figure = "4a"
	}
	writeDurReport(out, durReport{
		Figure:   figure,
		Mode:     "durable",
		Threads:  maxP,
		Workload: wl.String(),
		KeyDist:  kd.String(),
		Prefill:  prefill,
		Duration: duration.String(),
		Reps:     reps,
		Cells:    jsonCells,
		Recover:  recCells,
	})
}

// backendLabel names the effective WAL backend for table headers.
func backendLabel(backend string) string {
	if backend != "" {
		return backend
	}
	if kv.MmapSupported {
		return "mmap"
	}
	return "file"
}

// runRecoverTable is the -recover mode: for each queue and snapshot age
// it fabricates a crashed store — `items` live inserts captured by an
// explicit snapshot, then `age` more logged inserts that only the WAL
// holds — and times a cold open end to end: store open (mmap + torn-tail
// scan), manifest + part decode, WAL tail fold, and the rebuild of the
// in-memory queue. Cells are millions of recovered items per second;
// the age sweep is the recovery-time curve EXPERIMENTS.md plots.
func runRecoverTable(queueNames []string, ages []int, items, reps int,
	seed uint64, cfg durConfig, dir string, markdown bool) []recCell {
	fmt.Printf("# recover backend=%s items=%d ages=%v reps=%d\n",
		backendLabel(cfg.backend), items, ages, reps)

	var table cli.Table
	head := []string{"age"}
	for _, name := range queueNames {
		head = append(head, "rec:"+name)
	}
	table.AddRow(head...)

	var cells []recCell
	for _, age := range ages {
		row := []string{fmt.Sprintf("%d", age)}
		for qi, name := range queueNames {
			sub := filepath.Join(dir, fmt.Sprintf("rec-%02d-%d", qi, age))
			buildCrashedStore(name, sub, items, age, seed, cfg)

			total := items + age
			var rates []float64
			var millis float64
			for rep := 0; rep < reps; rep++ {
				inner, err := cpq.NewQueue(name, cpq.Options{Threads: 1})
				exitOn(err)
				start := time.Now()
				store := openRecStore(sub, cfg)
				q, err := durable.Wrap(inner, durable.Options{
					Store:        store,
					SegmentBytes: cfg.segBytes,
				})
				exitOn(err)
				dt := time.Since(start)
				// The wrapper does not own an explicitly-passed store, and
				// Close would snapshot-and-truncate — mutating the fixture
				// for the next rep. Drop the queue, close the store.
				_ = q
				exitOn(store.Close())
				rates = append(rates, float64(total)/dt.Seconds()/1e6)
				millis += float64(dt.Milliseconds())
			}
			s := stats.Summarize(rates)
			row = append(row, fmt.Sprintf("%.3f ±%.3f", s.Mean, s.CI95))
			cells = append(cells, recCell{
				Queue: "rec:" + name, SnapshotAge: age, Items: total,
				MItemsMean: cli.Round3(s.Mean), MItemsCI95: cli.Round3(s.CI95),
				MillisMean: cli.Round3(millis / float64(reps)),
			})
		}
		table.AddRow(row...)
	}
	if markdown {
		fmt.Print(table.Markdown())
	} else {
		fmt.Print(table.String())
	}
	fmt.Println("# cells are millions of items recovered per second (store open + replay + queue rebuild), mean ±95% CI")
	return cells
}

// buildCrashedStore logs `items` inserts, snapshots, logs `age` more,
// and abandons the queue without Close — the store is left exactly as a
// crash would leave it: a committed manifest plus an `age`-record WAL
// tail, every record group-commit fsynced.
func buildCrashedStore(name, sub string, items, age int, seed uint64, cfg durConfig) {
	inner, err := cpq.NewQueue(name, cpq.Options{Threads: 1})
	exitOn(err)
	store := openRecStore(sub, cfg)
	q, err := durable.Wrap(inner, durable.Options{
		Store:             store,
		GroupCommitWindow: cfg.window,
		SegmentBytes:      cfg.segBytes,
	})
	exitOn(err)
	h := q.Handle()
	const chunk = 4096 // batch the load: one group commit per chunk, not per item
	buf := make([]pq.KV, 0, chunk)
	flush := func() {
		if len(buf) > 0 {
			pq.InsertN(h, buf)
			buf = buf[:0]
		}
	}
	for i := 0; i < items; i++ {
		v := seed + uint64(i)
		buf = append(buf, pq.KV{Key: v * 2654435761 % 1_000_000_007, Value: v})
		if len(buf) == chunk {
			flush()
		}
	}
	flush()
	exitOn(q.Snapshot())
	for i := 0; i < age; i++ {
		v := seed + uint64(items+i)
		buf = append(buf, pq.KV{Key: v * 2654435761 % 1_000_000_007, Value: v})
		if len(buf) == chunk {
			flush()
		}
	}
	flush()
	// No Close: closing would take a final snapshot and erase the tail.
	// Acked batches are already fsynced, so this store is the crash image.
	exitOn(store.Close())
}

// openRecStore opens the recovery fixture directory with the configured
// (or platform-default) backend — the same selection durable.Wrap makes
// from a Dir, done here so the benchmark controls the store lifetime.
func openRecStore(sub string, cfg durConfig) kv.Store {
	segBytes := cfg.segBytes
	if segBytes == 0 {
		segBytes = kv.DefaultSegmentBytes
	}
	useMmap := cfg.backend == "mmap" || (cfg.backend == "" && kv.MmapSupported)
	if useMmap {
		s, err := kv.OpenMmap(sub, segBytes)
		exitOn(err)
		return s
	}
	s, err := kv.OpenFile(sub)
	exitOn(err)
	return s
}

// flagSet reports whether the named flag was explicitly provided.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// csvCell converts a rendered "m ±c" cell into "m,c".
func csvCell(t cli.Table, row, col int) string {
	cell := t.Cell(row, col)
	return strings.NewReplacer(" ±", ",", "±", "").Replace(cell)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
}
