package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"cpq/internal/durable/kv"
	"cpq/internal/netpq"
	"cpq/internal/pq"
)

// Span layers and operations. A span's layer is the module whose public
// boundary the wrapper sits on; its op is the call made across it.
const (
	layerQueue uint8 = iota
	layerDurable
	layerKV
	layerClient
)

const (
	opInsert uint8 = iota
	opDelete
	opSend   // client: Start* entry until the flush that put the frame on the socket returned
	opWait   // client: that flush until the frame's response was decoded
	opGet    // kv.Store calls
	opList   //
	opUpdate //
	opAppend // WAL segment appends
	opSync   //
	opPart   // appends to any other key: snapshot part chunks
)

var (
	layerNames = [...]string{"queue", "durable", "kv", "client"}
	opNames    = [...]string{"insert", "delete", "send", "wait", "get", "list", "update", "append", "sync", "part"}
)

// span is one call across a layer boundary. Spans of one request share
// req: the source tag of the connection (or worker) plus one, shifted
// above the per-connection frame ordinal. Inner calls made on behalf of
// several connections (the durable tier's single substrate handle) cannot
// know the request; they carry the address of the caller's item buffer
// instead, which the server keeps per connection, and are joined to the
// enclosing outer span by buf and time.
type span struct {
	req        uint64 // ordinal within the segment until joined; see tHandle
	buf        uintptr
	start, end int64 // ns since the tracer's epoch
	seg        uint32
	n          uint32 // items moved or bytes
	layer, op  uint8
}

func (s span) dur() int64 { return s.end - s.start }

// connStats counts one side's socket calls during the measured phase.
type connStats struct {
	reads, writes, readBytes, writeBytes atomic.Uint64
}

// setupSpan times one set-up call: queue construction, durable.Wrap
// (recovery), server start, dial, prefill.
type setupSpan struct {
	name       string
	start, end int64
}

// tracer owns every span of a traced run. Spans are kept in memory by the
// wrapper that made them and collected once the run has stopped.
type tracer struct {
	epoch     time.Time
	every     uint64 // outer spans are kept for 1 in every requests
	measuring atomic.Bool

	mu      sync.Mutex
	handles []*tHandle
	clients []*tClient
	kv      []span
	setup   []setupSpan

	measureStart, measureEnd int64
	client, server           connStats
}

func newTracer(every uint64) *tracer {
	return &tracer{epoch: time.Now(), every: every}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// timeSetup runs fn and records it as a set-up span.
func (t *tracer) timeSetup(name string, fn func() error) error {
	start := t.now()
	err := fn()
	t.mu.Lock()
	t.setup = append(t.setup, setupSpan{name, start, t.now()})
	t.mu.Unlock()
	return err
}

func (t *tracer) startMeasuring() {
	t.measureStart = t.now()
	t.measuring.Store(true)
}

func (t *tracer) stopMeasuring() {
	t.measuring.Store(false)
	t.measureEnd = t.now()
}

func bufOf(kvs []pq.KV) uintptr {
	if cap(kvs) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(kvs)))
}

// ---- queue and handle wrappers ----

// tQueue wraps a pq.Queue so that every handle it hands out is timed.
// traced() gives it exactly the optional interfaces of the queue it wraps.
type tQueue struct {
	inner     pq.Queue
	tr        *tracer
	layer     uint8
	joinByBuf bool
}

func (q *tQueue) Name() string { return q.inner.Name() }

func (q *tQueue) Handle() pq.Handle {
	h := &tHandle{tr: q.tr, inner: q.inner.Handle(), layer: q.layer, joinByBuf: q.joinByBuf, owners: []uint64{0}}
	q.tr.mu.Lock()
	q.tr.handles = append(q.tr.handles, h)
	q.tr.mu.Unlock()
	return tracedHandle(h)
}

type qCloser struct{ q *tQueue }

func (c qCloser) Close() error { return c.q.inner.(pq.Closer).Close() }

type qGrower struct{ q *tQueue }

func (g qGrower) EnsureHandles(p int) { g.q.inner.(pq.Grower).EnsureHandles(p) }

// tracedQueue wraps inner for layer. joinByBuf marks a queue whose
// handles serve several connections, so their spans are joined to
// requests by buffer address rather than by ordinal.
func tracedQueue(tr *tracer, inner pq.Queue, layer uint8, joinByBuf bool) pq.Queue {
	q := &tQueue{inner: inner, tr: tr, layer: layer, joinByBuf: joinByBuf}
	_, c := inner.(pq.Closer)
	_, g := inner.(pq.Grower)
	switch {
	case c && g:
		return struct {
			*tQueue
			qCloser
			qGrower
		}{q, qCloser{q}, qGrower{q}}
	case c:
		return struct {
			*tQueue
			qCloser
		}{q, qCloser{q}}
	case g:
		return struct {
			*tQueue
			qGrower
		}{q, qGrower{q}}
	}
	return q
}

// tHandle times the calls on one handle. A pooled handle serves one
// connection at a time and the pool flushes it on Release, so the calls
// between two flushes (a segment) are the frames of one connection, in
// order: the n-th call of a segment is the connection's n-th frame. The
// segment's owner is read from the source tag of its first insert.
type tHandle struct {
	tr        *tracer
	inner     pq.Handle
	layer     uint8
	joinByBuf bool

	ordinal uint64   // calls in the current segment
	owners  []uint64 // per segment: source tag + 1 of its connection, 0 until known

	// Measured-phase counters, over every call.
	calls, busyNs, asked, got uint64
	spans                     []span
}

func (h *tHandle) learnOwner(kvs []pq.KV) {
	if seg := len(h.owners) - 1; h.owners[seg] == 0 && len(kvs) > 0 {
		h.owners[seg] = srcOf(kvs[0].Value) + 1
	}
}

func (h *tHandle) record(op uint8, start int64, n int, buf uintptr) {
	end := h.tr.now()
	h.calls++
	h.busyNs += uint64(end - start)
	ord := h.ordinal
	h.ordinal++
	if h.joinByBuf || ord%h.tr.every == 0 {
		h.spans = append(h.spans, span{req: ord, buf: buf, start: start, end: end,
			seg: uint32(len(h.owners) - 1), n: uint32(n), layer: h.layer, op: op})
	}
}

func (h *tHandle) Insert(key, value uint64) {
	one := [1]pq.KV{{Key: key, Value: value}}
	h.learnOwner(one[:])
	if !h.tr.measuring.Load() {
		h.ordinal++
		h.inner.Insert(key, value)
		return
	}
	start := h.tr.now()
	h.inner.Insert(key, value)
	h.record(opInsert, start, 1, 0)
}

func (h *tHandle) DeleteMin() (uint64, uint64, bool) {
	if !h.tr.measuring.Load() {
		h.ordinal++
		return h.inner.DeleteMin()
	}
	start := h.tr.now()
	k, v, ok := h.inner.DeleteMin()
	h.asked++
	if ok {
		h.got++
	}
	h.record(opDelete, start, int(b2i(ok)), 0)
	return k, v, ok
}

func (h *tHandle) insertN(kvs []pq.KV) {
	h.learnOwner(kvs)
	if !h.tr.measuring.Load() {
		h.ordinal++
		h.inner.(pq.BatchInserter).InsertN(kvs)
		return
	}
	buf := bufOf(kvs)
	start := h.tr.now()
	h.inner.(pq.BatchInserter).InsertN(kvs)
	h.record(opInsert, start, len(kvs), buf)
}

func (h *tHandle) deleteMinN(dst []pq.KV, n int) int {
	if !h.tr.measuring.Load() {
		h.ordinal++
		return h.inner.(pq.BatchDeleter).DeleteMinN(dst, n)
	}
	buf := bufOf(dst)
	start := h.tr.now()
	got := h.inner.(pq.BatchDeleter).DeleteMinN(dst, n)
	h.asked += uint64(min(n, len(dst)))
	h.got += uint64(got)
	h.record(opDelete, start, got, buf)
	return got
}

func (h *tHandle) flush() {
	h.inner.(pq.Flusher).Flush()
	if !h.joinByBuf {
		h.owners = append(h.owners, 0)
		h.ordinal = 0
	}
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type hInsertN struct{ h *tHandle }

func (b hInsertN) InsertN(kvs []pq.KV) { b.h.insertN(kvs) }

type hDeleteMinN struct{ h *tHandle }

func (b hDeleteMinN) DeleteMinN(dst []pq.KV, n int) int { return b.h.deleteMinN(dst, n) }

type hFlush struct{ h *tHandle }

func (f hFlush) Flush() { f.h.flush() }

type hPeek struct{ h *tHandle }

func (p hPeek) PeekMin() (uint64, uint64, bool) { return p.h.inner.(pq.Peeker).PeekMin() }

// tracedHandle returns h behind a type that implements exactly the
// optional handle interfaces (BatchInserter, BatchDeleter, Flusher,
// Peeker) of h.inner, so capability checks take the same paths traced and
// untraced.
func tracedHandle(h *tHandle) pq.Handle {
	var mask int
	if _, ok := h.inner.(pq.BatchInserter); ok {
		mask |= 1
	}
	if _, ok := h.inner.(pq.BatchDeleter); ok {
		mask |= 2
	}
	if _, ok := h.inner.(pq.Flusher); ok {
		mask |= 4
	}
	if _, ok := h.inner.(pq.Peeker); ok {
		mask |= 8
	}
	i, d, f, p := hInsertN{h}, hDeleteMinN{h}, hFlush{h}, hPeek{h}
	switch mask {
	case 1:
		return struct {
			*tHandle
			hInsertN
		}{h, i}
	case 2:
		return struct {
			*tHandle
			hDeleteMinN
		}{h, d}
	case 3:
		return struct {
			*tHandle
			hInsertN
			hDeleteMinN
		}{h, i, d}
	case 4:
		return struct {
			*tHandle
			hFlush
		}{h, f}
	case 5:
		return struct {
			*tHandle
			hInsertN
			hFlush
		}{h, i, f}
	case 6:
		return struct {
			*tHandle
			hDeleteMinN
			hFlush
		}{h, d, f}
	case 7:
		return struct {
			*tHandle
			hInsertN
			hDeleteMinN
			hFlush
		}{h, i, d, f}
	case 8:
		return struct {
			*tHandle
			hPeek
		}{h, p}
	case 9:
		return struct {
			*tHandle
			hInsertN
			hPeek
		}{h, i, p}
	case 10:
		return struct {
			*tHandle
			hDeleteMinN
			hPeek
		}{h, d, p}
	case 11:
		return struct {
			*tHandle
			hInsertN
			hDeleteMinN
			hPeek
		}{h, i, d, p}
	case 12:
		return struct {
			*tHandle
			hFlush
			hPeek
		}{h, f, p}
	case 13:
		return struct {
			*tHandle
			hInsertN
			hFlush
			hPeek
		}{h, i, f, p}
	case 14:
		return struct {
			*tHandle
			hDeleteMinN
			hFlush
			hPeek
		}{h, d, f, p}
	case 15:
		return struct {
			*tHandle
			hInsertN
			hDeleteMinN
			hFlush
			hPeek
		}{h, i, d, f, p}
	}
	return h
}

// ---- kv.Store wrapper ----

// tStore times every call of the six kv.Store methods. Its spans are kept
// in every phase: Get and List during set-up are the recovery's reads.
type tStore struct {
	inner kv.Store
	tr    *tracer
}

func (s *tStore) span(op uint8, start int64, n int) {
	end := s.tr.now()
	s.tr.mu.Lock()
	s.tr.kv = append(s.tr.kv, span{start: start, end: end, n: uint32(n), layer: layerKV, op: op})
	s.tr.mu.Unlock()
}

func (s *tStore) Get(key string) ([]byte, bool, error) {
	start := s.tr.now()
	v, ok, err := s.inner.Get(key)
	s.span(opGet, start, len(v))
	return v, ok, err
}

func (s *tStore) List(prefix string) ([]string, error) {
	start := s.tr.now()
	keys, err := s.inner.List(prefix)
	s.span(opList, start, len(keys))
	return keys, err
}

func (s *tStore) Update(fn func(kv.Tx) error) error {
	start := s.tr.now()
	var bytes int
	err := s.inner.Update(func(tx kv.Tx) error { return fn(&tTx{Tx: tx, bytes: &bytes}) })
	s.span(opUpdate, start, bytes)
	return err
}

func (s *tStore) Append(key string, data []byte) error {
	start := s.tr.now()
	err := s.inner.Append(key, data)
	op := opPart
	if strings.HasPrefix(key, "wal/") {
		op = opAppend
	}
	s.span(op, start, len(data))
	return err
}

func (s *tStore) Sync() error {
	start := s.tr.now()
	err := s.inner.Sync()
	s.span(opSync, start, 0)
	return err
}

func (s *tStore) Close() error { return s.inner.Close() }

// tTx counts the bytes an Update batch sets.
type tTx struct {
	kv.Tx
	bytes *int
}

func (t *tTx) Set(key string, val []byte) {
	*t.bytes += len(val)
	t.Tx.Set(key, val)
}

// ---- socket wrappers ----

// tConn counts one side's reads and writes during the measured phase.
type tConn struct {
	net.Conn
	tr *tracer
	st *connStats
}

func (c *tConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.measuring.Load() {
		c.st.reads.Add(1)
		c.st.readBytes.Add(uint64(n))
	}
	return n, err
}

func (c *tConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.measuring.Load() {
		c.st.writes.Add(1)
		c.st.writeBytes.Add(uint64(n))
	}
	return n, err
}

// wrapConn sets TCP_NODELAY, as netpq does on the bare connection, before
// hiding the *net.TCPConn behind the counting wrapper.
func wrapConn(nc net.Conn, tr *tracer, st *connStats) net.Conn {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &tConn{Conn: nc, tr: tr, st: st}
}

type tListener struct {
	net.Listener
	tr *tracer
}

func (l tListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return wrapConn(nc, l.tr, &l.tr.server), nil
}

// tClient times a netpq.Client's pipelined calls. Frames are numbered in
// issue order from 0; responses come back in the same order.
type tClient struct {
	inner     *netpq.Client
	tr        *tracer
	owner     uint64 // source tag + 1
	issued    uint64
	received  uint64
	unflushed int
	pend      [pendRing]pendingFrame
	spans     []span
}

const pendRing = 64 // a power of two above the pipeline window

type pendingFrame struct{ start, flushed int64 }

func (c *tClient) issue(start int64) {
	c.pend[c.issued%pendRing] = pendingFrame{start: start}
	c.issued++
	c.unflushed++
}

func (c *tClient) StartInsertN(kvs []pq.KV) (uint32, error) {
	start := c.tr.now()
	req, err := c.inner.StartInsertN(kvs)
	c.issue(start)
	return req, err
}

func (c *tClient) StartDeleteMinN(n int) (uint32, error) {
	start := c.tr.now()
	req, err := c.inner.StartDeleteMinN(n)
	c.issue(start)
	return req, err
}

// Recv flushes the buffered frames itself, which netpq.Client.Recv would
// do anyway, so that the flush can be timed apart from the wait.
func (c *tClient) Recv() (netpq.Resp, error) {
	if c.unflushed > 0 {
		if err := c.inner.Flush(); err != nil {
			return netpq.Resp{}, err
		}
		now := c.tr.now()
		for i := c.issued - uint64(c.unflushed); i < c.issued; i++ {
			c.pend[i%pendRing].flushed = now
		}
		c.unflushed = 0
	}
	r, err := c.inner.Recv()
	end := c.tr.now()
	idx := c.received
	c.received++
	if err == nil && c.tr.measuring.Load() && idx%c.tr.every == 0 {
		p := c.pend[idx%pendRing]
		req := c.owner<<ownerShift | idx
		c.spans = append(c.spans,
			span{req: req, start: p.start, end: p.flushed, layer: layerClient, op: opSend},
			span{req: req, start: p.flushed, end: end, n: uint32(len(r.KVs)), layer: layerClient, op: opWait})
	}
	return r, err
}

func (c *tClient) Close() error { return c.inner.Close() }

// ownerShift places a connection's source tag + 1 above its frame ordinal
// in a request id.
const ownerShift = 40

// dialTraced dials addr through a counting connection.
func dialTraced(tr *tracer, addr, queueID string, src uint64) (*tClient, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c, err := netpq.NewClient(wrapConn(nc, tr, &tr.client), queueID)
	if err != nil {
		nc.Close()
		return nil, err
	}
	tc := &tClient{inner: c, tr: tr, owner: src + 1}
	tr.mu.Lock()
	tr.clients = append(tr.clients, tc)
	tr.mu.Unlock()
	return tc, nil
}

// writeSpans writes every collected span, one per line, to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "layer\top\treq\tbuf\tstart_ns\tend_ns\tn")
	put := func(s span) {
		fmt.Fprintf(w, "%s\t%s\t%d\t%x\t%d\t%d\t%d\n", layerNames[s.layer], opNames[s.op], s.req, s.buf, s.start, s.end, s.n)
	}
	for _, s := range t.setup {
		fmt.Fprintf(w, "setup\t%s\t0\t0\t%d\t%d\t0\n", s.name, s.start, s.end)
	}
	for _, c := range t.clients {
		for _, s := range c.spans {
			put(s)
		}
	}
	for _, h := range t.handles {
		for _, s := range h.spans {
			if !h.joinByBuf {
				s.req |= h.owners[s.seg] << ownerShift
			}
			put(s)
		}
	}
	for _, s := range t.kv {
		put(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
