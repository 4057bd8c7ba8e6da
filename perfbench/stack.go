package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cpq"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/netpq"
	"cpq/internal/pq"
)

// frameClient is the part of netpq.Client the closed loop drives; the
// traced run substitutes tClient.
type frameClient interface {
	StartInsertN(kvs []pq.KV) (uint32, error)
	StartDeleteMinN(n int) (uint32, error)
	Recv() (netpq.Resp, error)
	Close() error
}

// stack is one built system under test: a queue called in process, or a
// loopback netpq server (over a durable queue for net-dur-inmem) with the
// measured connections already dialed.
type stack struct {
	tr *tracer

	q pq.Queue // mem: the queue the workers call

	srv     *netpq.Server
	served  chan error // Serve's return value
	addr    string
	clients []frameClient
	dq      *durable.Queue
	store   *kv.Inmem // the unwrapped store under dq
	closed  bool
}

// timed runs fn, recording it as a set-up span when tracing.
func timed(tr *tracer, name string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	return tr.timeSetup(name, fn)
}

// setup builds the system and returns it with the set-up time: from the
// first call into the program until the first measured op could start.
// A durable stack recovers from a copy of the crash image, made untimed.
func (b *bench) setup(tr *tracer) (*stack, float64, error) {
	st := &stack{tr: tr}
	if b.spec.durable {
		m, err := cloneInmem(b.image)
		if err != nil {
			return nil, 0, err
		}
		st.store = m
	}
	start := time.Now()
	var err error
	if b.spec.net {
		err = b.setupNet(st)
	} else {
		err = b.setupMem(st)
	}
	elapsed := time.Since(start).Seconds()
	if err != nil {
		st.close()
		return nil, 0, err
	}
	return st, elapsed, nil
}

func (b *bench) setupMem(st *stack) error {
	err := timed(st.tr, "open", func() error {
		q, err := cpq.NewQueue(b.spec.queue, cpq.Options{Threads: workers})
		if err == nil && st.tr != nil {
			q = tracedQueue(st.tr, q, layerQueue, false)
		}
		st.q = q
		return err
	})
	if err != nil {
		return err
	}
	return timed(st.tr, "prefill", func() error {
		var wg sync.WaitGroup
		per := (len(b.prefill) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			part := b.prefill[min(w*per, len(b.prefill)):min((w+1)*per, len(b.prefill))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := st.q.Handle()
				var chunk [batch]pq.KV
				for off := 0; off < len(part); off += batch {
					n := copy(chunk[:], part[off:]) // InsertN may reorder its argument
					pq.InsertN(h, chunk[:n])
				}
				pq.Flush(h)
			}()
		}
		wg.Wait()
		return nil
	})
}

func (b *bench) setupNet(st *stack) error {
	var served pq.Queue
	if b.spec.durable {
		var err error
		if served, err = b.wrapDurable(st); err != nil {
			return err
		}
	}
	newQueue := func(spec, _ string, threads int) (pq.Queue, error) {
		if served != nil {
			return served, nil
		}
		q, err := cpq.NewQueue(spec, cpq.Options{Threads: threads})
		if err == nil && st.tr != nil {
			q = tracedQueue(st.tr, q, layerQueue, false)
		}
		return q, err
	}
	if err := timed(st.tr, "server", func() error {
		srv, err := netpq.NewServer(netpq.Options{NewQueue: newQueue, DefaultQueue: b.spec.queue, Static: true})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.CloseQueues()
			return err
		}
		st.srv, st.addr, st.served = srv, ln.Addr().String(), make(chan error, 1)
		if st.tr != nil {
			ln = tListener{Listener: ln, tr: st.tr}
		}
		go func() { st.served <- srv.Serve(ln) }()
		return nil
	}); err != nil {
		return err
	}
	if !b.spec.durable {
		if err := timed(st.tr, "prefill", func() error { return b.prefillNet(st) }); err != nil {
			return err
		}
	}
	return timed(st.tr, "dial", func() error {
		for w := 0; w < workers; w++ {
			c, err := st.dial(b.spec.queue, uint64(w+1))
			if err != nil {
				return err
			}
			st.clients = append(st.clients, c)
		}
		return nil
	})
}

// wrapDurable recovers the durable queue from the stack's copy of the
// crash image, over a substrate built the way the server builds it (no
// thread count; the pool grows it), and returns the queue to serve.
func (b *bench) wrapDurable(st *stack) (pq.Queue, error) {
	err := timed(st.tr, "wrap", func() error {
		inner, err := cpq.NewQueue(b.spec.queue, cpq.Options{})
		if err != nil {
			return err
		}
		var store kv.Store = st.store
		if st.tr != nil {
			inner = tracedQueue(st.tr, inner, layerQueue, true)
			store = &tStore{inner: st.store, tr: st.tr}
		}
		st.dq, err = durable.Wrap(inner, b.durableOptions(store))
		return err
	})
	if err != nil || st.tr == nil {
		return st.dq, err
	}
	return tracedQueue(st.tr, st.dq, layerDurable, false), nil
}

func (st *stack) dial(queueID string, src uint64) (frameClient, error) {
	if st.tr != nil {
		return dialTraced(st.tr, st.addr, queueID, src)
	}
	return netpq.Dial(st.addr, queueID)
}

// prefillNet inserts the prefill through one connection in frames of
// netpq.MaxBatch items, then waits until the server has released that
// connection's handle, so the measured connections always find the same
// pool state.
func (b *bench) prefillNet(st *stack) error {
	c, err := netpq.Dial(st.addr, b.spec.queue)
	if err != nil {
		return err
	}
	for off := 0; off < len(b.prefill); off += netpq.MaxBatch {
		if err := c.InsertN(b.prefill[off:min(off+netpq.MaxBatch, len(b.prefill))]); err != nil {
			c.Close()
			return fmt.Errorf("prefill: %w", err)
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	return st.waitIdle()
}

// waitIdle waits until the server has torn down every connection.
func (st *stack) waitIdle() error {
	for deadline := time.Now().Add(10 * time.Second); st.srv.Stats().ConnsActive > 0; {
		if time.Now().After(deadline) {
			return errors.New("server still holds connections after 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (b *bench) durableOptions(store kv.Store) durable.Options {
	return durable.Options{Store: store, SegmentBytes: segmentBytes, SnapshotEvery: snapshotEvery}
}

// shutdown closes the measured connections, the server and the served
// queues (the durable queue takes its final snapshot here), but not the
// store, and returns the errors.
func (st *stack) shutdown() error {
	var errs []error
	for _, c := range st.clients {
		c.Close()
	}
	st.clients = nil
	if st.srv != nil {
		errs = append(errs, st.srv.Close(), <-st.served, st.srv.CloseQueues())
		st.srv = nil
	}
	if st.q != nil {
		errs = append(errs, pq.Close(st.q))
		st.q = nil
	}
	if st.dq != nil {
		errs = append(errs, st.dq.Close())
		st.dq = nil
	}
	return errors.Join(errs...)
}

// close releases everything the stack holds, ignoring errors, and frees
// its memory before the next stack is built.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	st.shutdown()
	if st.store != nil {
		st.store.Close()
		st.store = nil
	}
	runtime.GC()
	debug.FreeOSMemory()
}
