package main

import (
	"fmt"
	"time"

	"cpq"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/keys"
	"cpq/internal/netpq"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// The cell every workload shares.
const (
	prefillItems    = 1_000_000
	walTailItems    = 100_000         // durable workloads: items only the crash image's WAL holds
	batch           = 8               // items per request
	workers         = 2               // worker goroutines or connections
	window          = 32              // frames in flight per connection
	slices          = 40              // the measured phase is cut into this many equal slices
	warmup          = 2 * time.Second // untimed load before the measured phase
	memLatencyEvery = 4               // in process, one request in memLatencyEvery is timed
	traceEvery      = 16              // one request in traceEvery keeps its spans
	setupReps       = 3               // set-ups per end-to-end run; setup_s is their median
	rankPasses      = 5               // in-process rank-error passes; rank_error_mean is their median
	boundTolerance  = 0.001           // share of deletions allowed above a claimed rank bound, as in cmd/pqverify
	rankOps         = 1 << 19         // rank-error pass: items per worker
	segmentBytes    = 1 << 20         // durable.Options.SegmentBytes
	snapshotEvery   = 1 << 16         // durable.Options.SnapshotEvery, in logged records: one or more snapshots a second
)

// spec is one workload.
type spec struct {
	name    string
	queue   string // registry id of the substrate
	mix     workload.Kind
	keys    keys.Distribution
	net     bool // served by an in-process netpq.Server over loopback
	durable bool // the queue is wrapped by durable.Wrap over a kv.Inmem store
}

var specs = []spec{
	{name: "mem-uniform", queue: "multiq-s4-b8", mix: workload.Uniform, keys: keys.Uniform32},
	{name: "mem-split-asc", queue: "klsm4096", mix: workload.Split, keys: keys.Ascending},
	{name: "net-mem", queue: "multiq-s4-b8", mix: workload.Uniform, keys: keys.Uniform32, net: true},
	{name: "net-dur-inmem", queue: "multiq-s4-b8", mix: workload.Uniform, keys: keys.Uniform32, net: true, durable: true},
}

// bench is one invocation: a workload, a seed and a run length.
type bench struct {
	spec    spec
	seed    uint64
	dur     time.Duration
	prefill []pq.KV   // items in the queue when measurement starts
	image   *kv.Inmem // durable workloads: the crash image every set-up recovers from a copy of
}

// genPrefill draws the prefill from the seed: keys from the workload's
// distribution, values tagged with source 0.
func (b *bench) genPrefill(n int) {
	gen := keys.NewGenerator(b.spec.keys, rng.New(b.seed^0xd1b54a32d192ed03))
	b.prefill = make([]pq.KV, n)
	for i := range b.prefill {
		b.prefill[i] = pq.KV{Key: gen.Next(), Value: tag(0, uint64(i))}
	}
}

// buildImage leaves in the store what a crash would: prefillItems items
// in a committed snapshot plus walTailItems more only in the WAL, every
// record synced, the queue never closed (closing would snapshot the tail
// away). This is pqbench -recover's fixture, built untimed.
func (b *bench) buildImage() error {
	b.image = kv.NewInmem()
	inner, err := cpq.NewQueue(b.spec.queue, cpq.Options{})
	if err != nil {
		return err
	}
	q, err := durable.Wrap(inner, durable.Options{Store: b.image, SegmentBytes: segmentBytes})
	if err != nil {
		return err
	}
	h := q.Handle()
	chunk := make([]pq.KV, 0, 4096)
	load := func(items []pq.KV) {
		for off := 0; off < len(items); off += cap(chunk) {
			chunk = append(chunk[:0], items[off:min(off+cap(chunk), len(items))]...)
			pq.InsertN(h, chunk)
		}
	}
	load(b.prefill[:prefillItems])
	err = q.Snapshot()
	if err == nil {
		load(b.prefill[prefillItems:])
		err = q.Err()
	}
	return err
}

// cloneInmem copies every key of src into a new in-memory store.
func cloneInmem(src *kv.Inmem) (*kv.Inmem, error) {
	keys, err := src.List("")
	if err != nil {
		return nil, err
	}
	dst := kv.NewInmem()
	err = dst.Update(func(tx kv.Tx) error {
		for _, k := range keys {
			v, _, err := src.Get(k)
			if err != nil {
				return err
			}
			tx.Set(k, append([]byte(nil), v...))
		}
		return nil
	})
	return dst, err
}

// outcome is what a run reports.
type outcome struct {
	attempted, failed uint64
	problems          []string
	metrics           []namedMetric
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, namedMetric{name: name, value: value, unit: unit})
}

func (b *bench) prepare() error {
	if b.spec.durable {
		b.genPrefill(prefillItems + walTailItems)
		return b.buildImage()
	}
	b.genPrefill(prefillItems)
	return nil
}

// endToEnd is the untraced run: setupReps set-ups (the last one is
// measured), the measured phase, the correctness checks, then the
// separate rank-error pass.
func (b *bench) endToEnd() (*outcome, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		var secs float64
		var err error
		if st, secs, err = b.setup(nil); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	p := b.measure(st, b.dur)
	rss := peakRSSMB()
	b.finish(st, p)

	o := &outcome{attempted: p.attempted, failed: p.failed, problems: p.problems}
	mops, p50, p99 := p.summary()
	o.add("throughput_mops", mops, "MOps/s")
	o.add("op_p50_us", p50, "us")
	o.add("op_p99_us", p99, "us")
	o.metrics[len(o.metrics)-1].note = fmt.Sprintf("%d requests timed, %d sampled", p.timed, p.sampled())
	fmt.Printf("throughput by slice, MOps/s: %s\n", p.sliceRates())
	fmt.Printf("host steal during the measured phase: %.1f%% of CPU time\n", 100*p.steal)

	rank := b.rankPass()
	for _, n := range rank.notes {
		fmt.Println(n)
	}
	o.problems = append(o.problems, rank.problems...)
	o.add("rank_error_mean", rank.mean, "rank")
	o.metrics[len(o.metrics)-1].note = fmt.Sprintf("median of %d passes, %d deletions", len(rank.means), rank.deletions)
	o.add("setup_s", percentile(setups, 50), "s")
	o.metrics[len(o.metrics)-1].note = fmt.Sprintf("median of %d set-ups", len(setups))
	o.add("rss_peak_mb", rss, "MB")
	return o, nil
}

// finish ends a measured phase: it takes the residue the queue still
// holds, shuts the stack down and runs the correctness checks. In
// process and over plain sockets the residue is drained through the
// queue; for a durable stack the store is replayed with
// durable.ReplayStore, which must give back exactly the acknowledged
// inserts minus the acknowledged deletes.
func (b *bench) finish(st *stack, p *phase) {
	defer st.close()
	bad := func(format string, args ...any) { p.problems = append(p.problems, fmt.Sprintf(format, args...)) }
	var residue []pq.KV
	var err error
	switch {
	case b.spec.durable: // replayed from the store below
	case !b.spec.net:
		residue = drain(st.q.Handle())
	default:
		for _, c := range st.clients {
			c.Close()
		}
		st.clients = nil
		if err = st.waitIdle(); err == nil {
			residue, err = drainNet(st.addr, b.spec.queue)
		}
	}
	if err != nil {
		bad("drain: %v", err)
	}
	if st.dq != nil {
		if derr := st.dq.Err(); derr != nil {
			bad("durable log poisoned: %v", derr)
			p.failed = p.attempted
		}
	}
	if err := st.shutdown(); err != nil {
		bad("shutdown: %v", err)
	}
	if b.spec.durable {
		if residue, err = durable.ReplayStore(st.store); err != nil {
			bad("replay store: %v", err)
			return
		}
	}
	p.problems = append(p.problems, conserve(p.led, p.issued, residue)...)
}

// drain empties a queue through h in batches.
func drain(h pq.Handle) []pq.KV {
	var out []pq.KV
	buf := make([]pq.KV, netpq.MaxBatch)
	for {
		got := pq.DeleteMinN(h, buf, len(buf))
		if got == 0 {
			return out
		}
		out = append(out, buf[:got]...)
	}
}

// drainNet empties the served queue through a fresh connection.
func drainNet(addr, queueID string) ([]pq.KV, error) {
	c, err := netpq.Dial(addr, queueID)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var out []pq.KV
	buf := make([]pq.KV, netpq.MaxBatch)
	for {
		got, err := c.DeleteMinN(buf, len(buf))
		if err != nil || got == 0 {
			return out, err
		}
		out = append(out, buf[:got]...)
	}
}

// rankPass measures rank error on the workload's cell, apart from the
// timed phase: passes of quality.Run, reporting the median of their mean
// ranks. In process it takes rankPasses passes: now and then one pass's
// mean is several times the others (seen on multiq-s4-b8), and the
// median keeps that pass from moving the metric. For the socket workloads
// one pass routes every handle through a pq.Pool over a queue built for
// one handle, as the server builds and grows the queue it serves; its
// mean spread 3% over seeds, so one pass is enough.
func (b *bench) rankPass() rankResult {
	var r rankResult
	passes := uint64(rankPasses)
	if b.spec.net {
		passes = 1
	}
	for i := uint64(0); i < passes; i++ {
		res := quality.Run(quality.Config{
			NewQueue: func(threads int) pq.Queue {
				q, err := cpq.NewQueue(b.spec.queue, cpq.Options{Threads: threads})
				if err != nil {
					panic(err) // the spec was constructed successfully during set-up
				}
				return q
			},
			Threads:      workers,
			OpsPerThread: rankOps,
			Workload:     b.spec.mix,
			KeyDist:      b.spec.keys,
			Prefill:      prefillItems,
			OpBatch:      batch,
			Seed:         (b.seed*rankPasses+i)*2 + 1,
			UsePool:      b.spec.net,
		})
		r.means = append(r.means, res.MeanRank)
		r.deletions += res.Deletions
		r.notes = append(r.notes, fmt.Sprintf("rank pass %d: mean %.1f over %d deletions", i, res.MeanRank, res.Deletions))
		r.checkBound(b.spec.queue, res)
	}
	r.mean = percentile(r.means, 50)
	return r
}

// rankResult is the rank-error pass's outcome.
type rankResult struct {
	mean      float64
	means     []float64 // per pass
	deletions uint64
	notes     []string
	problems  []string
}

// checkBound holds a pass to the queue's claimed rank bound, with
// quality.Run's prefill handle counted as a handle (for a pooled pass,
// the handle count quality.EffectiveP gives), the way cmd/pqverify
// does: the log's stamps are taken outside the calls, so a worker
// descheduled between its call and its stamp inflates ranks (see package
// quality). Ranks above the bound are always reported; the run fails when
// more than boundTolerance of the deletions exceed the bound plus a
// slack of one rank per worker.
func (r *rankResult) checkBound(queue string, res quality.Result) {
	p := workers + 1
	if res.PoolCreated > 0 {
		p = quality.EffectiveP(queue, res.PoolPeakLive, res.PoolCreated)
	}
	bound, kind := quality.ClaimedBound(queue, p)
	if kind == quality.BoundNone {
		return
	}
	above := quality.ViolationsAbove(res, bound)
	r.notes = append(r.notes, fmt.Sprintf("rank pass: %d of %d deletions above the %s bound %d (max rank %d)",
		above, res.Deletions, kind, bound, res.MaxRank))
	if v := quality.ViolationsAbove(res, bound+workers); float64(v) > boundTolerance*float64(res.Deletions) {
		r.problems = append(r.problems, fmt.Sprintf("rank bound: %d of %d deletions above the %s bound %d + slack %d",
			v, res.Deletions, kind, bound, workers))
	}
}
