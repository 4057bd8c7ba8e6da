package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// traced is the per-layer run: an untraced reference phase, then the
// same set-up and phase with timing wrappers at every layer boundary,
// each for half the run. Both phases are checked for correctness.
func (b *bench) traced() (*outcome, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	half := b.dur / 2
	st, _, err := b.setup(nil)
	if err != nil {
		return nil, err
	}
	ref := b.measure(st, half)
	b.finish(st, ref)

	tr := newTracer(traceEvery)
	if st, _, err = b.setup(tr); err != nil {
		return nil, err
	}
	p := b.measure(st, half)
	b.finish(st, p)

	o := &outcome{
		attempted: ref.attempted + p.attempted,
		failed:    ref.failed + p.failed,
		problems:  append(ref.problems, p.problems...),
	}
	b.layerMetrics(o, tr, p, ref)
	dir := filepath.Join(".bench_build", "traces")
	path := filepath.Join(dir, b.spec.name+".tsv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return o, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics from the traced phase p and
// the untraced reference phase ref. A layer's self time is its span minus
// the child spans joined to the same request.
func (b *bench) layerMetrics(o *outcome, tr *tracer, p, ref *phase) {
	srv0, srv1 := p.srv0, p.srv1
	var (
		qCalls, qBusy, qAsked, qGot uint64
		qNs, dUs                    []float64
		outer                       = map[uint64]span{} // request id -> span of the handle the server called
		inner                       = map[uintptr][]span{}
		durSpans                    []span
	)
	for _, h := range tr.handles {
		if h.layer == layerQueue {
			qCalls += h.calls
			qBusy += h.busyNs
			qAsked += h.asked
			qGot += h.got
		}
		for _, s := range h.spans {
			if h.layer == layerQueue {
				qNs = append(qNs, float64(s.dur()))
			} else {
				dUs = append(dUs, float64(s.dur())/1e3)
				durSpans = append(durSpans, s)
			}
			switch owner := h.owners[s.seg]; {
			case h.joinByBuf:
				inner[s.buf] = append(inner[s.buf], s)
			case owner != 0 && len(tr.clients) > 0: // only socket requests have a parent span
				outer[owner<<ownerShift|s.req] = s
			}
		}
	}
	o.add("queue.calls", float64(qCalls), "count")
	o.add("queue.busy_s", float64(qBusy)/1e9, "s")
	o.add("queue.call_p50_ns", percentile(qNs, 50), "ns")
	o.add("queue.call_p99_ns", percentile(qNs, 99), "ns")
	o.add("queue.delete_fill_ratio", ratio(float64(qGot), float64(qAsked)), "ratio")

	// Client spans come in send/wait pairs; the server's handle span of
	// the same request is its child.
	var send, wait, srvSelf []float64
	var unjoined float64
	for _, c := range tr.clients {
		for i := 0; i+1 < len(c.spans); i += 2 {
			s, w := c.spans[i], c.spans[i+1]
			send = append(send, float64(s.dur())/1e3)
			wait = append(wait, float64(w.dur())/1e3)
			if h, ok := outer[s.req]; ok {
				srvSelf = append(srvSelf, float64(w.end-s.start-h.dur())/1e3)
			} else {
				unjoined++
			}
		}
	}
	frames := float64(p.ops / batch)
	o.add("net.client_send_us_p50", percentile(send, 50), "us")
	o.add("net.client_wait_us_p50", percentile(wait, 50), "us")
	o.add("net.server_self_us_p50", percentile(srvSelf, 50), "us")
	o.add("net.client_writes_per_frame", ratio(float64(tr.client.writes.Load()), frames), "writes/frame")
	o.add("net.server_writes_per_frame", ratio(float64(tr.server.writes.Load()), float64(srv1.FramesOut-srv0.FramesOut)), "writes/frame")
	o.add("net.server_reads_per_frame", ratio(float64(tr.server.reads.Load()), float64(srv1.FramesIn-srv0.FramesIn)), "reads/frame")
	o.add("net.bytes_per_item", ratio(float64(tr.client.writeBytes.Load()+tr.server.writeBytes.Load()), float64(p.ops)), "B/item")
	o.add("net.allocs_per_item", ratio(float64(ref.mallocs), float64(ref.ops)), "allocs/item")
	o.add("net.frames_in", float64(srv1.FramesIn-srv0.FramesIn), "count")
	o.add("net.frames_out", float64(srv1.FramesOut-srv0.FramesOut), "count")
	o.add("net.write_stalls", float64(srv1.WriteStalls-srv0.WriteStalls), "count")
	o.add("net.drops", float64(srv1.Drops-srv0.Drops), "count")

	// Only the durable workload has the durable and kv layers; the others
	// leave their metrics out rather than print zeros.
	if b.spec.durable {
		dur0, dur1 := p.dur0, p.dur1
		// The durable tier's one substrate handle serves every connection; its
		// span is joined to the durable span that passed the same buffer and
		// encloses it.
		for _, l := range inner {
			sort.Slice(l, func(i, j int) bool { return l[i].start < l[j].start })
		}
		var durSelf []float64
		for _, d := range durSpans {
			l := inner[d.buf]
			i := sort.Search(len(l), func(i int) bool { return l[i].start >= d.start })
			if i < len(l) && l[i].end <= d.end {
				durSelf = append(durSelf, float64(d.dur()-l[i].dur())/1e3)
			} else {
				unjoined++
			}
		}
		o.add("durable.call_p50_us", percentile(dUs, 50), "us")
		o.add("durable.call_p99_us", percentile(dUs, 99), "us")
		o.add("durable.self_us_p50", percentile(durSelf, 50), "us")
		o.add("durable.records_per_fsync", ratio(float64(dur1.Records-dur0.Records), float64(dur1.Fsyncs-dur0.Fsyncs)), "records/fsync")
		o.add("durable.snapshots", float64(dur1.Snapshots-dur0.Snapshots), "count")
		var recoverS float64
		for _, s := range tr.setup {
			if s.name == "wrap" {
				recoverS = float64(s.end-s.start) / 1e9
			}
		}
		o.add("durable.recover_s", recoverS, "s")
		o.add("durable.recover_mitems_s", ratio(float64(len(b.prefill))/1e6, recoverS), "MItems/s")

		var getNs, getBytes, appends, appendBytes, updates, updateBytes, updateNs float64
		var syncUs []float64
		for _, s := range tr.kv {
			measured := s.start >= tr.measureStart && s.start < tr.measureEnd
			switch {
			case s.op == opGet && s.start < tr.measureStart:
				getNs += float64(s.dur())
				getBytes += float64(s.n)
			case s.op == opAppend && measured:
				appends++
				appendBytes += float64(s.n)
			case s.op == opSync && measured:
				syncUs = append(syncUs, float64(s.dur())/1e3)
			case (s.op == opUpdate || s.op == opPart) && measured:
				updates++
				updateBytes += float64(s.n)
				updateNs += float64(s.dur())
			}
		}
		o.add("kv.get_s", getNs/1e9, "s")
		o.add("kv.get_bytes", getBytes, "B")
		o.add("kv.append_calls", appends, "count")
		o.add("kv.append_bytes", appendBytes, "B")
		o.add("kv.sync_calls", float64(len(syncUs)), "count")
		o.add("kv.sync_p50_us", percentile(syncUs, 50), "us")
		o.add("kv.sync_p99_us", percentile(syncUs, 99), "us")
		o.add("kv.update_calls", updates, "count")
		o.add("kv.update_bytes", updateBytes, "B")
		o.add("kv.update_s", updateNs/1e9, "s")
		o.add("kv.bytes_written_per_item", ratio(appendBytes+updateBytes, float64(p.ops)), "B/item")
	}

	o.add("trace.overhead_frac", 1-ratio(p.mops(), ref.mops()), "ratio")
	o.add("trace.unjoined", unjoined, "count")
}
