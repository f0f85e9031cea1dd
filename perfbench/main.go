// Command perfbench is the engine's end-to-end benchmark. It runs one
// closed-loop LDBC workload against the engine configured as poseidond
// serves it, checks the outputs and crash recovery, and prints every
// metric by name and unit; the last line of its output is one JSON
// object. README.md in this directory describes the workloads and the
// metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sr-point --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"poseidon/internal/ldbc"
)

const (
	setupRuns = 3               // set-ups per run; setup_s is their median
	warmup    = time.Second     // unmeasured closed-loop ops before the window
	slice     = time.Second / 2 // a traced run alternates untraced and traced slices of this length
	// p99_us is the median of the p99s of up to p99Groups consecutive
	// groups of at least p99Group ops, so that each p99 has ten samples
	// beyond it and a burst of host noise moves one group, not the metric.
	p99Group  = 1000
	p99Groups = 15
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sr-point, iu-write, wire-mix or sr-scan")
	seed := fs.Int64("seed", 1, "seed of the dataset and of every op's parameters")
	seconds := fs.Int("seconds", 12, "length of the measured window")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workloadSpec) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sr-point, iu-write, wire-mix, sr-scan), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	// A traced run writes its spans inside the build directory of the checkout.
	spans := filepath.Join(".bench_build", "spans", *name+".jsonl")
	r, err := execute(workloads[i], *seed, time.Duration(*seconds)*time.Second, *traced == 1, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.print(out)
	if !r.correct {
		return 1
	}
	return 0
}

// metric is one reported figure; base says what a ratio or percentile
// rests on.
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

type result struct {
	workload          string
	correct           bool
	problems          []string
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, value float64, unit, base string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit, base})
}

func (r *result) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-32s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.base)
	}
	if r.correct {
		fmt.Fprintln(out, "checks: all passed")
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "check failed: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, m := range r.metrics {
		js.Metrics[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(js) // plain numbers and strings always marshal
	fmt.Fprintln(out, string(b))
}

// tally counts one bucket's ops: untraced (0) or traced (1).
type tally struct {
	attempted, failed, protocol int
	iu                          int     // successful IU ops
	lat, start                  []int64 // ns, successful ops only
	errs                        []string
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.protocol += o.protocol
	t.iu += o.iu
	t.lat = append(t.lat, o.lat...)
	t.start = append(t.start, o.start...)
	t.errs = append(t.errs, o.errs...)
}

// runPhase runs every worker in a closed loop: each starts ops for d,
// then finishes the op in flight. With sliced set, ops starting in odd
// slices are traced and tallied in bucket 1. It returns the tallies and
// the time until the last op finished.
func runPhase(workers []*worker, d time.Duration, sliced bool) ([2]tally, time.Duration) {
	tallies := make([][2]tally, len(workers))
	start := now()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(w *worker, t *[2]tally) {
			defer wg.Done()
			for {
				n := now()
				if n >= deadline {
					return
				}
				b := 0
				if sliced && (n-start)/int64(slice)%2 == 1 {
					b = 1
				}
				lat, class, err := w.op(b == 1)
				t[b].attempted++
				if err != nil {
					t[b].failed++
					if w.e.spec.kind == wireMix && isProtocolError(err) {
						t[b].protocol++
					}
					if len(t[b].errs) < 5 {
						t[b].errs = append(t[b].errs, err.Error())
					}
					continue
				}
				t[b].lat = append(t[b].lat, lat)
				t[b].start = append(t[b].start, n)
				if class == classIU {
					t[b].iu++
				}
			}
		}(w, &tallies[i])
	}
	wg.Wait()
	elapsed := time.Duration(now() - start)
	var all [2]tally
	for i := range tallies {
		all[0].merge(&tallies[i][0])
		all[1].merge(&tallies[i][1])
	}
	return all, elapsed
}

// splitWindow returns how much of a window of length d its untraced and
// traced slices cover.
func splitWindow(d, slice time.Duration) (untraced, traced time.Duration) {
	full, rem := d/slice, d%slice
	traced = full / 2 * slice
	untraced = (full - full/2) * slice
	if full%2 == 0 {
		untraced += rem
	} else {
		traced += rem
	}
	return untraced, traced
}

// liveHeap returns the bytes of live heap after a forced GC.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// tailP99 returns the p99 op latency in us as the median of the p99s of
// consecutive groups of ops, with a description of what it rests on.
func tailP99(start, lat []int64) (float64, string) {
	n := len(lat)
	p99, groups := groupedPercentile(start, lat, 0.99, p99Group, p99Groups)
	size := n / max(groups, 1)
	base := fmt.Sprintf("median of the p99s of %d consecutive groups of %d ops, %d beyond each; whole window %.1f us",
		groups, size, beyond(size, 0.99), float64(percentile(sortedCopy(lat), 0.99))/1e3)
	if beyond(size, 0.99) < 10 {
		base += "; fewer than 10 samples beyond: not a reliable tail"
	}
	return p99 / 1e3, base
}

func execute(spec workloadSpec, seed int64, window time.Duration, traced bool, spansPath string) (*result, error) {
	r := &result{workload: spec.name, correct: true}
	var timeline []string
	mark := now()
	lap := func(phase string) {
		t := now()
		timeline = append(timeline, fmt.Sprintf("%s %.2fs", phase, time.Duration(t-mark).Seconds()))
		mark = t
	}
	ds := ldbc.Generate(ldbc.Config{Persons: spec.persons, Seed: seed})
	r.notes = append(r.notes, fmt.Sprintf("dataset: persons=%d, %d nodes, %d rels, seed %d; %d client(s), closed loop, window %v",
		spec.persons, len(ds.Nodes), len(ds.Edges), seed, spec.clients, window))

	var setupLog *spanLog
	if traced {
		setupLog = &spanLog{}
	}
	var (
		acked  ackSet
		times  []setupTimes
		heapMB []float64
		reopen []float64 // seconds per recovery of a set-up image
	)
	// The workload runs on the first set-up, in a process no earlier
	// engine has left anything in. The other set-ups follow the run.
	setUpOnce := func(i int, acked *ackSet) (*env, error) {
		heap0 := liveHeap()
		e, t, err := setUp(spec, ds, seed, setupLog, uint64(i+1)<<50, acked)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, t)
		heapMB = append(heapMB, (liveHeap()-heap0)/1e6)
		return e, nil
	}
	e, err := setUpOnce(0, &acked)
	if err != nil {
		return nil, err
	}
	lap("generate+set-up")
	workers := make([]*worker, spec.clients)
	for i := range workers {
		workers[i] = newWorker(e, i+1, seed)
	}
	warm, _ := runPhase(workers, warmup, false)
	for _, w := range workers {
		w.retries = 0
	}

	lap("warm-up")
	before := takeSnapshot(e.db)
	tallies, elapsed := runPhase(workers, window, traced)
	after := takeSnapshot(e.db)

	all := tallies[0]
	all.merge(&tallies[1])
	// attempted and failed count every op after set-up, warm-up included.
	r.attempted, r.failed = all.attempted+warm[0].attempted, all.failed+warm[0].failed
	if r.failed > 0 {
		r.notes = append(r.notes, "failed ops: "+strings.Join(append(warm[0].errs, all.errs...), "; "))
	}
	if p := all.protocol + warm[0].protocol; p > 0 {
		r.problem("%d wire protocol errors", p)
	}
	retries := 0
	var logs [][]span
	for _, w := range workers {
		retries += w.retries
		acked.merge(&w.acked)
		logs = append(logs, w.log.spans)
		w.close()
	}

	lap("window")
	if err := checkSR(e, seed); err != nil {
		r.problem("%v", err)
	}
	if err := checkAcked(e.db, &acked); err != nil {
		r.problem("before crash: %v", err)
	}
	r.notes = append(r.notes, fmt.Sprintf("checks: %d SR parameter sets x 4 plan/mode pairs; %d acknowledged inserts",
		len(srQueries), acked.count()))
	lap("checks")
	e.stopServer()
	reopenS, fsckS, err := recoveryCheck(e.db, &acked, setupLog)
	if err != nil {
		r.problem("%v", err)
	}
	lap("crash-recovery")
	for i := 1; i < setupRuns; i++ {
		debug.FreeOSMemory()
		more, err := setUpOnce(i, &ackSet{})
		if err != nil {
			return nil, err
		}
		more.stopServer()
		secs, err := crashSetUp(more.db, setupLog, uint64(i+1)<<50|1<<40)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		reopen = append(reopen, secs...)
	}
	lap("more set-ups")
	r.notes = append(r.notes, "timeline: "+strings.Join(timeline, ", "))

	sm := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t).Seconds()
		}
		return median(xs)
	}
	setupBase := fmt.Sprintf("median of %d set-ups", setupRuns)
	if !traced {
		ok := tallies[0]
		n := len(ok.lat)
		r.add("ops_per_s", float64(n)/elapsed.Seconds(), "1/s", fmt.Sprintf("%d ops in %v", n, elapsed.Round(time.Millisecond)))
		r.add("p50_us", float64(percentile(sortedCopy(ok.lat), 0.50))/1e3, "us", fmt.Sprintf("n=%d", n))
		r.add("p90_us", float64(percentile(sortedCopy(ok.lat), 0.90))/1e3, "us", fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.90)))
		p99, base := tailP99(ok.start, ok.lat)
		r.notes = append(r.notes, fmt.Sprintf("p99 %.1f us (%s); unbounded, see README", p99, base))
		r.add("setup_s", sm(setupTimes.total), "s", setupBase)
		r.add("mem_mb", median(heapMB), "MB", fmt.Sprintf("live heap a set-up adds, after GC, %s %.1f", setupBase, heapMB))
		r.add("recovery_s", median(reopen), "s", fmt.Sprintf("median of %d Reopens of a crashed set-up image %.3f", len(reopen), reopen))
		return r, nil
	}

	untracedT, tracedT := splitWindow(window, slice)
	st := summarize(slices.Concat(logs...))
	ops := len(all.lat)
	r.add("poseidon.open_s", sm(func(t setupTimes) time.Duration { return t.open }), "s", setupBase)
	r.add("ldbc.load_s", sm(func(t setupTimes) time.Duration { return t.load }), "s", setupBase)
	r.add("core.create_index_s", sm(func(t setupTimes) time.Duration { return t.index }), "s", setupBase)
	r.add("poseidon.prepare_s", sm(func(t setupTimes) time.Duration { return t.prepare }), "s", setupBase)
	r.add("jit.warm_s", sm(func(t setupTimes) time.Duration { return t.warm }), "s", setupBase)
	layerMetrics(r, before.delta(after), st, ops, all.iu, retries, all.lat)
	r.add("core.reopen_s", reopenS, "s", "Reopen after the crash that ends the run")
	r.add("fsck.check_s", fsckS, "s", "after that recovery")
	r.add("bench.ops", float64(ops), "count", fmt.Sprintf("successful ops in %v", window))
	p99, base := tailP99(all.start, all.lat)
	r.add("bench.p99_us", p99, "us", base+", traced and untraced slices")
	r.add("bench.self_us", meanUs(st.self), "us", fmt.Sprintf("op span minus its calls, n=%d traced ops", len(st.self)))
	plain := float64(len(tallies[0].lat)) / untracedT.Seconds()
	withSpans := float64(len(tallies[1].lat)) / tracedT.Seconds()
	r.add("bench.trace_overhead", 1-ratio(withSpans, plain), "ratio",
		fmt.Sprintf("1 - traced/untraced ops/s = 1 - %.1f/%.1f", withSpans, plain))

	if err := writeSpans(spansPath, setupLog.spans, slices.Concat(logs...)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.notes = append(r.notes, "spans written to "+spansPath)
	return r, nil
}
