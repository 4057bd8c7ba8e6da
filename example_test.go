package cpq_test

import (
	"fmt"
	"sort"
	"sync"

	"cpq"
)

// The basic usage pattern: one queue, one handle per goroutine.
func ExampleNewKLSM() {
	q := cpq.NewKLSM(256)
	h := q.Handle()
	h.Insert(42, 420)
	h.Insert(7, 70)
	key, value, ok := h.DeleteMin()
	fmt.Println(key, value, ok)
	// Output: 7 70 true
}

// Queues can be constructed from their benchmark identifiers.
func ExampleNewQueue() {
	q, err := cpq.NewQueue("multiq", cpq.Options{Threads: 4})
	if err != nil {
		panic(err)
	}
	h := q.Handle()
	h.Insert(3, 30)
	key, _, _ := h.DeleteMin()
	fmt.Println(q.Name(), key)
	// Output: multiq 3
}

// Strict queues drain in exactly sorted order from a single handle.
func ExampleNewLinden() {
	q := cpq.NewLinden()
	h := q.Handle()
	for _, k := range []uint64{5, 1, 4, 2, 3} {
		h.Insert(k, 0)
	}
	for {
		k, _, ok := h.DeleteMin()
		if !ok {
			break
		}
		fmt.Print(k, " ")
	}
	// Output: 1 2 3 4 5
}

// Concurrent use: every goroutine takes its own handle; items are returned
// exactly once across all handles.
func ExampleNewMultiQueue() {
	const workers = 4
	q := cpq.NewMultiQueue(4, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle() // one handle per goroutine
			for i := 0; i < 100; i++ {
				h.Insert(uint64(w*100+i), 0)
			}
		}(w)
	}
	wg.Wait()
	h := q.Handle()
	var drained []uint64
	for {
		k, _, ok := h.DeleteMin()
		if !ok {
			break
		}
		drained = append(drained, k)
	}
	sort.Slice(drained, func(i, j int) bool { return drained[i] < drained[j] })
	fmt.Println(len(drained), drained[0], drained[len(drained)-1])
	// Output: 400 0 399
}
