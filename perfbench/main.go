// Command perfbench is the repository's whole-stack benchmark. One
// process drives the queue substrates in process, over loopback sockets
// to an in-process netpq server, and over sockets into the durable tier;
// it prints every metric by name with its unit, checks that the queue
// gave back exactly what went in, and ends with one JSON result line.
//
//	bash perfbench/run.sh --workload net-dur-inmem --seed 7 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from a run with timing wrappers at every layer boundary. README.md in
// this directory describes the workloads, the metrics and their caveats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cpq/internal/stats"
)

func main() {
	name := flag.String("workload", "", "workload: mem-uniform, mem-split-asc, net-mem or net-dur-inmem")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	if err := run(*sp, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(sp spec, seed uint64, seconds int, traced bool) error {
	st := stampFor(sp, seed, seconds, traced)
	line, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", line)

	b := &bench{spec: sp, seed: seed, dur: time.Duration(seconds) * time.Second}
	var o *outcome
	if traced {
		o, err = b.traced()
	} else {
		o, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	return o.print()
}

// print writes one line per metric, the failed checks, and the result
// line the driver reads: the last line of standard output.
func (o *outcome) print() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range o.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("%-30s %16s %s%s\n", m.name, strconv.FormatFloat(v, 'g', 8, 64), m.unit, note)
	}
	fmt.Printf("%-30s %16s ratio  (%d of %d items)\n", "failed_frac",
		strconv.FormatFloat(ratio(float64(o.failed), float64(o.attempted)), 'g', 8, 64), o.failed, o.attempted)
	for _, p := range o.problems {
		fmt.Println("check failed:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stamp identifies the host and configuration a result came from, so
// that numbers from different hosts or WAL backends are never compared
// without notice.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	WALBackend string `json:"wal_backend"`
	Queue      string `json:"queue"`
	Mix        string `json:"mix"`
	Keys       string `json:"keys"`
	Prefill    int    `json:"prefill"`
	Batch      int    `json:"batch"`
	Workers    int    `json:"workers"`
	Window     int    `json:"window,omitempty"`
}

func stampFor(sp spec, seed uint64, seconds int, traced bool) stamp {
	s := stamp{
		Workload: sp.name, Seed: seed, Seconds: seconds, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: "unknown", WALBackend: "none",
		Queue: sp.queue, Mix: sp.mix.String(), Keys: sp.keys.String(),
		Prefill: prefillItems, Batch: batch, Workers: workers,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			s.GitSHA = rev + dirty
		}
	}
	if sp.net {
		s.Window = window
	}
	if sp.durable {
		s.Prefill = prefillItems + walTailItems
		s.WALBackend = "kv.Inmem"
	}
	return s
}

// percentile returns the p-th percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// cpuTicks reads the steal and total CPU ticks of all CPUs from
// /proc/stat (zeros where it cannot be read). Steal is time the
// hypervisor ran something else while this guest wanted the CPU; a run
// with much of it measured the neighbours as well as the program.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
