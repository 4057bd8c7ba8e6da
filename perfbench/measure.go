package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpq/internal/durable"
	"cpq/internal/keys"
	"cpq/internal/netpq"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// phase is the outcome of one measured phase.
type phase struct {
	ops       uint64 // items moved by acknowledged requests; a batch of n counts n
	attempted uint64 // items of every request sent
	failed    uint64 // items of requests that failed
	elapsed   time.Duration
	timed     uint64 // requests whose latency was taken
	slices    [slices]slice
	mallocs   uint64  // heap allocations of the whole process during the phase
	steal     float64 // share of the host's CPU time stolen from this guest during the phase
	led       *ledger
	issued    []uint64 // value tags handed out, per source
	problems  []string

	// Server and durable-log counters at the start and end of the
	// measured slices (zero when the stack has no server or log).
	srv0, srv1 netpq.Stats
	dur0, dur1 durable.Stats
}

// counters reads the server and durable-log counters of st.
func (st *stack) counters() (srv netpq.Stats, dur durable.Stats) {
	if st.srv != nil {
		srv = st.srv.Stats()
	}
	if st.dq != nil {
		dur = st.dq.Stats()
	}
	return srv, dur
}

func (p *phase) mops() float64 { return float64(p.ops) / 1e6 / p.elapsed.Seconds() }

// slice is one of the equal parts the measured phase is cut into. Each
// metric is the median over slices of the slice's figure, so a stall or
// a slow spell of the host confined to a few slices moves it little.
// Pooling the latency samples of all slices instead lets a few slow
// slices set the p99, which then spreads widely from run to run on the
// durable workload (README.md has the figures).
type slice struct {
	ops     uint64
	elapsed time.Duration
	lat     []float64
}

func (p *phase) sampled() (n int) {
	for _, s := range p.slices {
		n += len(s.lat)
	}
	return n
}

// sliceRates lists each slice's throughput.
func (p *phase) sliceRates() string {
	var parts []string
	for _, s := range p.slices {
		parts = append(parts, strconv.FormatFloat(float64(s.ops)/1e6/s.elapsed.Seconds(), 'f', 3, 64))
	}
	return strings.Join(parts, " ")
}

// summary returns the medians over slices of the throughput and of the
// p50 and p99 latencies.
func (p *phase) summary() (mops, p50, p99 float64) {
	var m, l50, l99 []float64
	for _, s := range p.slices {
		m = append(m, float64(s.ops)/1e6/s.elapsed.Seconds())
		l50 = append(l50, percentile(s.lat, 50))
		l99 = append(l99, percentile(s.lat, 99))
	}
	return percentile(m, 50), percentile(l50, 50), percentile(l99, 50)
}

// worker is one closed-loop worker's private state.
type worker struct {
	w      int
	policy workload.Policy
	gen    *keys.Generator
	led    *ledger
	seq    uint64           // value tags issued
	lat    [slots]reservoir // per slot: the warm-up, then each slice
	ops    [slots]uint64
	sent   uint64
	failed uint64
	err    error
}

func (b *bench) newWorker(w int, exact bool) *worker {
	r := rng.New(b.seed*0x9e3779b97f4a7c15 + uint64(w+1)*0x6a09e667f3bcc909)
	wk := &worker{
		w:      w,
		policy: workload.ForWorker(b.spec.mix, w, workers, 0.5, r),
		gen:    keys.NewGenerator(b.spec.keys, r),
		led:    newLedger(workers+1, exact),
	}
	for i := range wk.lat {
		wk.lat[i] = reservoir{kept: make([]float64, 0, reservoirSize), rng: uint64(w*slots+i) + 1}
	}
	return wk
}

// reservoir keeps a uniform sample of at most reservoirSize latencies
// in memory allocated up front, so that timing adds no garbage to
// collect while the phase runs.
type reservoir struct {
	kept []float64
	seen uint64
	rng  uint64
}

const reservoirSize = 1 << 13

// slots counts the warm-up and the measured slices.
const slots = slices + 1

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.kept) < cap(r.kept) {
		r.kept = append(r.kept, v)
		return
	}
	if j := rng.SplitMix64(&r.rng) % r.seen; j < uint64(len(r.kept)) {
		r.kept[j] = v
	}
}

func (wk *worker) fill(kvs []pq.KV) {
	for i := range kvs {
		kvs[i] = pq.KV{Key: wk.gen.Next(), Value: tag(uint64(wk.w+1), wk.seq)}
		wk.seq++
	}
}

// measure runs the workers for d against st and collects their accounts.
func (b *bench) measure(st *stack, d time.Duration) *phase {
	exact := b.spec.durable
	wks := make([]*worker, workers)
	for w := range wks {
		wks[w] = b.newWorker(w, exact)
	}
	var handles []pq.Handle
	if !b.spec.net {
		for range wks {
			handles = append(handles, st.q.Handle())
		}
	}
	var clock atomic.Int32 // the current slot; slots means stop
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w, wk := range wks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.spec.net {
				wk.netLoop(st.clients[w], &clock)
			} else {
				wk.memLoop(handles[w], &clock)
			}
		}()
	}
	// Slot 0 is an untimed warm-up; slots 1..slices are the measured
	// slices; the workers stop when the clock reaches slots.
	var m0, m1 runtime.MemStats
	close(start)
	time.Sleep(warmup)
	srv0, dur0 := st.counters()
	runtime.ReadMemStats(&m0)
	steal0, total0 := cpuTicks()
	if st.tr != nil {
		st.tr.startMeasuring()
	}
	began := time.Now()
	var bounds [slots]time.Time
	bounds[0] = began
	clock.Store(1)
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(began.Add(d * time.Duration(i) / slices)))
		bounds[i] = time.Now()
		clock.Store(int32(i + 1))
	}
	wg.Wait()
	bounds[slices] = time.Now() // the last slice ends when in-flight requests are answered
	elapsed := bounds[slices].Sub(began)
	if st.tr != nil {
		st.tr.stopMeasuring()
	}
	runtime.ReadMemStats(&m1)
	steal1, total1 := cpuTicks()
	srv1, dur1 := st.counters()

	p := &phase{elapsed: elapsed, mallocs: m1.Mallocs - m0.Mallocs, steal: ratio(float64(steal1-steal0), float64(total1-total0)), led: newLedger(workers+1, exact),
		issued: make([]uint64, workers+1), srv0: srv0, srv1: srv1, dur0: dur0, dur1: dur1}
	p.issued[0] = uint64(len(b.prefill))
	for _, kv := range b.prefill {
		p.led.inserted(kv)
	}
	for i := range p.slices {
		p.slices[i].elapsed = bounds[i+1].Sub(bounds[i])
	}
	for w, wk := range wks {
		for i := range p.slices {
			p.ops += wk.ops[i+1]
			p.slices[i].ops += wk.ops[i+1]
			p.timed += wk.lat[i+1].seen
			p.slices[i].lat = append(p.slices[i].lat, wk.lat[i+1].kept...)
		}
		p.attempted += wk.sent
		p.failed += wk.failed
		p.led.merge(wk.led)
		p.issued[w+1] = wk.seq
		if wk.err != nil {
			p.problems = append(p.problems, fmt.Sprintf("worker %d: %v", w, wk.err))
		}
	}
	return p
}

// memLoop calls the queue back to back: one InsertN or DeleteMinN of
// batch items per request, timing one request in latencyEvery.
func (wk *worker) memLoop(h pq.Handle, clock *atomic.Int32) {
	kvs := make([]pq.KV, batch)
	for calls := uint64(0); ; calls++ {
		sl := clock.Load()
		if sl >= slots {
			break
		}
		insert := wk.policy.Next() == workload.Insert
		if insert {
			wk.fill(kvs)
			for _, kv := range kvs {
				wk.led.inserted(kv)
			}
		}
		sample := calls%memLatencyEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		got := 0
		if insert {
			pq.InsertN(h, kvs)
		} else {
			got = pq.DeleteMinN(h, kvs, batch)
		}
		if sample {
			wk.lat[sl].add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		}
		for _, kv := range kvs[:got] {
			wk.led.deleted(kv)
		}
		if got > 0 {
			wk.gen.Observe(kvs[got-1].Key)
		}
		wk.ops[sl] += batch
		wk.sent += batch
	}
	pq.Flush(h)
}

// netLoop keeps a window of pipelined frames in flight on one connection,
// draining half of it before refilling, as pqload does. Each frame is one
// request of batch items; its latency runs from issue to decoded response
// and is kept for every frame.
func (wk *worker) netLoop(c frameClient, clock *atomic.Int32) {
	var (
		items    [window * batch]pq.KV // insert items of each in-flight slot
		isInsert [window]bool
		sentAt   [window]time.Time
		head     int
		inFlight int
		sl       = int32(0)
	)
	issue := func() error {
		slot := (head + inFlight) % window
		isInsert[slot] = wk.policy.Next() == workload.Insert
		var err error
		if isInsert[slot] {
			kvs := items[slot*batch : (slot+1)*batch]
			wk.fill(kvs)
			_, err = c.StartInsertN(kvs)
		} else {
			_, err = c.StartDeleteMinN(batch)
		}
		sentAt[slot] = time.Now()
		inFlight++
		wk.sent += batch
		return err
	}
	recv := func() error {
		r, err := c.Recv()
		if err != nil {
			return err
		}
		slot := head
		head = (head + 1) % window
		inFlight--
		wk.lat[sl].add(float64(time.Since(sentAt[slot]).Nanoseconds()) / 1e3)
		switch {
		case r.Err != nil:
			wk.failed += batch
		case isInsert[slot] && r.Op == netpq.OpInsert|netpq.RespBit:
			for _, kv := range items[slot*batch : (slot+1)*batch] {
				wk.led.inserted(kv)
			}
			wk.ops[sl] += batch
		case !isInsert[slot] && r.Op == netpq.OpDeleteMin|netpq.RespBit:
			for _, kv := range r.KVs {
				wk.led.deleted(kv)
			}
			if n := len(r.KVs); n > 0 {
				wk.gen.Observe(r.KVs[n-1].Key)
			}
			wk.ops[sl] += batch
		default:
			wk.failed += batch
			return fmt.Errorf("request answered with opcode %#02x", r.Op)
		}
		return nil
	}
	var err error
	for err == nil {
		if sl = clock.Load(); sl >= slots {
			sl = slots - 1
			break
		}
		for err == nil && inFlight < window {
			err = issue()
		}
		for err == nil && inFlight > window/2 {
			err = recv()
		}
	}
	for err == nil && inFlight > 0 {
		err = recv()
	}
	if err != nil {
		wk.failed += uint64(inFlight) * batch
		wk.err = err
	}
}
