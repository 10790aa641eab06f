// Command perfbench is the repository benchmark: it runs one named workload
// against the library and an in-process claired for a fixed time, checks
// every output against expected values, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 times each call the
// benchmark makes into a layer, writes the spans to one file and reports the
// per-layer metrics. See perfbench/README.md for the workloads, the metrics
// and what each metric is predicted to do.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run builds its workload's set-up; setup_s is
// the median, so one slow build does not move it.
const setupReps = 101

// bench is the state one run shares across its workload: the seed, the
// measuring time, the tracer (nil when untraced) and the operation ledger.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	nproc    int
	tr       *tracer
	reqSeq   atomic.Int64

	attempted, failed int
	// layer collects per-layer metrics; the first value set for a name wins,
	// so the workload's own measurement takes precedence over the layer probe.
	layer map[string]metric
}

// nextReq returns a fresh request id for spans.
func (b *bench) nextReq() int64 { return b.reqSeq.Add(1) }

// op records one attempted operation; a non-nil err marks it failed and is
// printed, since a wrong output makes the run fail.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		}
	}
}

// setLayer records a per-layer metric unless the name is already set.
func (b *bench) setLayer(name, unit string, v float64) {
	if _, ok := b.layer[name]; !ok {
		b.layer[name] = metric{Value: v, Unit: unit}
	}
}

// info prints one human-readable line; the JSON result stays the last line.
func info(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	wl := flag.String("workload", "", "workload to run: explore, pipeline or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span file")
	record := flag.Bool("record", false, "print the expected-output oracle for this commit and exit")
	flag.Parse()

	if *record {
		if err := recordExpected(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload explore|pipeline|serve, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{workload: *wl, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		nproc: runtime.GOMAXPROCS(0), layer: make(map[string]metric)}
	info("perfbench: workload %s, seed %d, %d s, trace %d, nproc %d, %s",
		*wl, *seed, *seconds, *trace, b.nproc, runtime.Version())

	metrics := make(map[string]metric)
	if *trace == 0 {
		m, err := run(b, exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		metrics["setup_s"] = metric{m.setupS, "s"}
		metrics["cpu_ms"] = metric{m.cpuMS, "ms"}
		metrics["throughput_per_s"] = metric{m.throughput, "1/s"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		info("setup_s %.5f s, cpu_ms %.3f ms, throughput_per_s %.5g 1/s, peak_rss_mb %.1f MB",
			m.setupS, m.cpuMS, m.throughput, metrics["peak_rss_mb"].Value)
	} else {
		if err := traced(b, run, exp, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		metrics = b.layer
	}

	info("fail_ratio %g (%d of %d operations failed)", float64(b.failed)/float64(max(1, b.attempted)), b.failed, b.attempted)
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted == 0 {
		os.Exit(1)
	}
}

// e2e is what one workload run measured end to end. Costs are CPU time and
// throughput is a wall-clock rate with the host's steal removed; raw
// wall-clock latency is printed, and a traced run reports it per layer,
// because on a shared virtual machine it moves with the CPU time the host
// steals (see README.md).
type e2e struct {
	setupS     float64 // median set-up CPU time, s
	cpuMS      float64 // median process CPU time per operation, ms
	throughput float64 // work per second, as README.md defines it per workload
	wallP50MS  float64 // wall-clock median per operation
	wallTailMS float64 // wall-clock tail per operation
}

// workloadFunc runs one workload for b.dur and returns its end-to-end
// measurements. With b.tr set it also records spans and per-layer metrics.
type workloadFunc func(b *bench, exp *expected) (e2e, error)

var workloads = map[string]workloadFunc{
	"explore":  runExplore,
	"pipeline": runPipeline,
	"serve":    runServe,
}

// traced runs the workload twice for half the time each, untraced then
// traced, reports the ratio of their median operation times as
// bench.trace_overhead, runs the layer probe for the layers the workload does
// not call itself, and writes the span file.
func traced(b *bench, run workloadFunc, exp *expected, dir string) error {
	b.dur /= 2
	plain, err := run(b, exp)
	if err != nil {
		return err
	}
	b.tr = newTracer()
	b.layer = make(map[string]metric)
	withTrace, err := run(b, exp)
	if err != nil {
		return err
	}
	b.setLayer("bench.trace_overhead", "ratio", withTrace.wallP50MS/plain.wallP50MS)
	b.setLayer("bench.wall_p50_ms", "ms", plain.wallP50MS)
	b.setLayer("bench.wall_tail_ms", "ms", plain.wallTailMS)
	if err := layerProbe(b, exp); err != nil {
		return err
	}
	self, path, err := b.tr.write(dir, b.workload, b.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	info("spans: %s", path)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		info("self time %-9s %.4f s", l, self[l])
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for a reported tail, highest first.
// They are a decade apart so that a tail does not sit on the boundary
// between the serve mix's light and heavy requests (about 5% heavy).
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail returns the highest candidate percentile with at least ten samples
// beyond it (nearest rank), and its label; with too few samples for any, the
// maximum, labelled "max".
func tail(xs []float64) (float64, string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, "none"
	}
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx >= 0 && n-1-idx >= 10 {
			return s[idx], "p" + strconv.FormatFloat(p, 'f', -1, 64)
		}
	}
	return s[n-1], "max"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the process's CPU time so far (user plus system, all threads).
// Costs are measured in CPU time because wall time on a shared virtual
// machine moves with the time the host steals from it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks is the machine's CPU time in clock ticks from the first line of
// /proc/stat: busy (user, nice, system, irq, softirq) and steal, the time
// the hypervisor ran something else while a virtual CPU had work.
type hostTicks struct{ busy, steal int64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	v := make([]int64, 9)
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	return hostTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// unstolen scales a wall-clock interval that ran between the samples from
// and to by the share of the virtual CPUs' runnable time the host did not
// steal. When k virtual CPUs had work, the interval's busy plus stolen ticks
// are about k times its length and the stolen ones about k times the wall
// time lost, so the ratio removes steal at any parallelism. It stays a wall
// time: work serialised onto fewer CPUs, or waiting on a lock, still
// lengthens it.
func unstolen(wall time.Duration, from, to hostTicks) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if busy+steal <= 0 {
		return wall.Seconds()
	}
	return wall.Seconds() * float64(busy) / float64(busy+steal)
}

// timeSetup runs build setupReps times and returns the median CPU time in
// seconds and the last build's value. Each earlier value is released with
// discard, and the garbage collected, before the next build starts, so that
// no build pays for an earlier one's teardown.
func timeSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var ts, walls []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		runtime.GC()
		start, cpu := time.Now(), cpuTime()
		v, err := build()
		if err != nil {
			return v, 0, err
		}
		ts = append(ts, (cpuTime() - cpu).Seconds())
		walls = append(walls, time.Since(start).Seconds())
		last = v
	}
	info("setup: median %.4f s CPU, %.4f s wall over %d builds", median(ts), median(walls), setupReps)
	return last, median(ts), nil
}
