package cpq

import (
	"runtime"
	"testing"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// TestSteadyStateMemoryStable runs every paper queue through a long
// steady-state churn (insert+delete pairs at constant population) and
// checks that live heap memory does not creep: structures that defer
// physical cleanup (Lindén's dead prefix, the SLSM's superseded states,
// CBPQ's frozen chunks) must all shed garbage at the rate they create it.
func TestSteadyStateMemoryStable(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	for _, name := range PaperNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := NewQueue(name, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			h := q.Handle()
			r := rng.New(1)
			const population = 50_000
			for i := 0; i < population; i++ {
				h.Insert(r.Uint64()%1_000_000, 0)
			}
			churn := func(n int) {
				for i := 0; i < n; i++ {
					h.Insert(r.Uint64()%1_000_000, 0)
					h.DeleteMin()
				}
			}
			heapLive := func() uint64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			churn(100_000) // warm-up: reach steady state
			base := heapLive()
			churn(400_000)
			after := heapLive()
			// Allow generous jitter (GC timing, size-class effects), but a
			// leak of one node per op would be ~400k nodes ≈ tens of MB.
			if after > base+16<<20 {
				t.Fatalf("heap grew from %d to %d bytes over 400k steady-state ops",
					base, after)
			}
		})
	}
}

// TestKLSM16MimicsLinden checks the paper's remark that "results for low
// relaxation (k=16) are not shown since its behavior closely mimics the
// Lindén and Jonsson priority queue": at 2 threads, klsm16's rank error
// must be tiny in absolute terms — the same order as a strict queue under
// stamping pessimism, far below even klsm128.
func TestKLSM16MimicsLinden(t *testing.T) {
	run := func(name string) quality.Result {
		return quality.Run(quality.Config{
			NewQueue: func(p int) pq.Queue {
				q, err := NewQueue(name, Options{Threads: p})
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			Threads:      2,
			OpsPerThread: 20_000,
			Workload:     workload.Uniform,
			KeyDist:      keys.Uniform32,
			Prefill:      20_000,
			Seed:         9,
		})
	}
	k16 := run("klsm16")
	k128 := run("klsm128")
	if k16.MeanRank > 16*3+2 {
		t.Fatalf("klsm16 mean rank %.1f — not linden-like", k16.MeanRank)
	}
	if k16.MeanRank >= k128.MeanRank {
		t.Fatalf("klsm16 (%.1f) should be well below klsm128 (%.1f)",
			k16.MeanRank, k128.MeanRank)
	}
}
