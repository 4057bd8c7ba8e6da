package main

import (
	"testing"

	"cpq"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// capabilities lists which optional interfaces v implements.
func capabilities(v any) map[string]bool {
	_, bi := v.(pq.BatchInserter)
	_, bd := v.(pq.BatchDeleter)
	_, fl := v.(pq.Flusher)
	_, pk := v.(pq.Peeker)
	_, cl := v.(pq.Closer)
	_, gr := v.(pq.Grower)
	return map[string]bool{"BatchInserter": bi, "BatchDeleter": bd, "Flusher": fl, "Peeker": pk, "Closer": cl, "Grower": gr}
}

func sameCapabilities(t *testing.T, what string, wrapped, inner any) {
	t.Helper()
	got, want := capabilities(wrapped), capabilities(inner)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: wrapper implements %s = %v, wrapped value = %v", what, name, got[name], w)
		}
	}
}

// TestWrappersKeepCapabilities checks that the traced run executes the
// same program: every timing wrapper implements exactly the optional
// interfaces of the value it wraps.
func TestWrappersKeepCapabilities(t *testing.T) {
	tr := newTracer(1)
	for _, spec := range []string{"multiq-s4-b8", "klsm4096"} {
		q, err := cpq.NewQueue(spec, cpq.Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, joinByBuf := range []bool{false, true} {
			tq := tracedQueue(tr, q, layerQueue, joinByBuf)
			sameCapabilities(t, spec+" queue", tq, q)
			sameCapabilities(t, spec+" handle", tq.Handle(), q.Handle())
		}
	}

	inner, err := cpq.NewQueue("multiq-s4-b8", cpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var traced kv.Store = &tStore{inner: kv.NewInmem(), tr: tr}
	dq, err := durable.Wrap(tracedQueue(tr, inner, layerQueue, true), durable.Options{Store: traced, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer dq.Close()
	tdq := tracedQueue(tr, dq, layerDurable, false)
	sameCapabilities(t, "durable queue", tdq, dq)
	sameCapabilities(t, "durable handle", tdq.Handle(), dq.Handle())
	if _, isCloser := tdq.(pq.Closer); !isCloser {
		t.Error("traced durable queue lost Close; the pool would skip the final snapshot")
	}
}

// TestTracedRunConserves pushes items through a traced durable queue and
// checks the store wrapper saw the WAL and that nothing was lost.
func TestTracedRunConserves(t *testing.T) {
	tr := newTracer(1)
	tr.startMeasuring()
	inner, err := cpq.NewQueue("multiq-s4-b8", cpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewInmem()
	dq, err := durable.Wrap(tracedQueue(tr, inner, layerQueue, true), durable.Options{Store: &tStore{inner: store, tr: tr}, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	h := tracedQueue(tr, dq, layerDurable, false).Handle()
	led := newLedger(2, true)
	kvs := make([]pq.KV, batch)
	for i := 0; i < 100; i++ {
		for j := range kvs {
			kvs[j] = pq.KV{Key: uint64(i*batch + j), Value: tag(1, uint64(i*batch+j))}
			led.inserted(kvs[j])
		}
		pq.InsertN(h, kvs)
		for _, kv := range kvs[:pq.DeleteMinN(h, kvs, batch/2)] {
			led.deleted(kv)
		}
	}
	tr.stopMeasuring()
	if err := dq.Close(); err != nil {
		t.Fatal(err)
	}
	var appends int
	for _, s := range tr.kv {
		if s.op == opAppend {
			appends++
		}
	}
	if appends == 0 {
		t.Error("store wrapper recorded no WAL appends")
	}
	residue, err := durable.ReplayStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if bad := conserve(led, []uint64{0, 100 * batch}, residue); len(bad) > 0 {
		t.Fatal(bad)
	}
}
