// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload over a fixed, seeded op list, checks every output against
// the oracle, and prints one JSON object as the last line of standard
// output:
//
//	perfbench --workload solve-whole --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it makes one untraced and one traced pass and reports
// the per-layer metrics from stage-replay spans and the program's own
// counters. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload: its seeded op list and how a fresh
// program instance is built. Every workload is a closed loop with one
// client: the next op starts when the previous one returns.
type workload struct {
	name  string
	warm  int // warm-up prefix run during set-up
	timed int // timed ops per pass; ≥1000 keeps ≥10 ops beyond p99
	slo   time.Duration
	// pass is the nominal time of one pass on the reference host; a run
	// of s seconds makes passes(s) passes whatever the build's speed.
	pass  time.Duration
	ops   func(seed int64, warm, timed int) ([]op, error)
	start func(seed int64, tr *tracer) (runner, error)
}

var workloads = []workload{
	{
		name: "solve-whole", warm: len(wholeTemplate), timed: 1000, slo: 100 * time.Millisecond, pass: 8500 * time.Millisecond,
		ops:   wholeOps,
		start: newWholeRunner,
	},
	{
		name: "batch-shard", warm: 4, timed: 1000, slo: 100 * time.Millisecond, pass: 18 * time.Second,
		ops:   func(s int64, w, t int) ([]op, error) { return batchOps(s, w, t), nil },
		start: newBatchRunner,
	},
	{
		name: "smt-incremental", warm: 300, timed: 10000, slo: 10 * time.Millisecond, pass: time.Second,
		ops:   func(s int64, w, t int) ([]op, error) { return smtOps(s, w, t), nil },
		start: newSMTRunner,
	},
	{
		name: "service-jobs", warm: servicePool, timed: 1000, slo: 100 * time.Millisecond, pass: 3250 * time.Millisecond,
		ops: serviceOps, start: newServiceRunner,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// minSetups is how many set-ups a run measures at least; setup_s is
// their median.
const minSetups = 15

// passes is how many timed passes a run of the given length makes, at
// least one. It is fixed by the workload and the length alone, so a
// faster build never measures more passes than a slower one.
func (w *workload) passes(seconds time.Duration) int {
	return max(1, int(math.Round(float64(seconds)/float64(w.pass))))
}

// tally accumulates checked outcomes and latencies over timed passes.
type tally struct {
	lat             []float64 // ms per timed op of every pass
	elapsed         time.Duration
	ops, failed     int
	items, decided  int
	inSLO           int
	wrong           []string
	familyDecided   map[string]int
	classOps        map[string]int
	classLat        map[string][]float64
	familyItems     map[string]int
	calls, retried  int
	okCalls         int
	selfNanos       int64
	unsat, optimize int
	cpu             time.Duration // process CPU time over the timed passes
	host            hostCPU       // host CPU ticks over the timed passes
}

func newTally() *tally {
	return &tally{
		familyDecided: map[string]int{}, familyItems: map[string]int{},
		classOps: map[string]int{}, classLat: map[string][]float64{},
	}
}

func (t *tally) add(w *workload, o *op, out outcome, lat time.Duration) {
	t.ops++
	t.lat = append(t.lat, float64(lat)/1e6)
	t.classOps[o.class]++
	t.classLat[o.class] = append(t.classLat[o.class], float64(lat)/1e6)
	if out.failed != nil {
		t.failed++
		if len(t.wrong) < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", w.name, out.failed)
		}
	}
	t.wrong = append(t.wrong, out.wrong...)
	for i, in := range o.items {
		t.items++
		t.familyItems[in.family]++
		if in.label == labelUnsat {
			t.unsat++
		}
		if len(in.soft) > 0 {
			t.optimize++
		}
		if i < len(out.decided) && out.decided[i] {
			t.decided++
			t.familyDecided[in.family]++
			if lat <= w.slo {
				t.inSLO++
			}
		}
	}
	t.calls += out.calls
	t.retried += out.retried
	t.okCalls += out.okCalls
	t.selfNanos += out.selfNanos
}

// setup builds a fresh program instance and runs the warm-up prefix:
// deterministic work only, never a timed warm-up.
func setup(w *workload, ops []op, seed int64, tr *tracer) (runner, time.Duration, error) {
	start := time.Now()
	r, err := w.start(seed, tr)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.warm; i++ {
		if out := r.do(context.Background(), &ops[i]); out.failed != nil {
			_ = r.close()
			return nil, 0, fmt.Errorf("warm-up op %d: %w", i, out.failed)
		}
	}
	return r, time.Since(start), nil
}

// pass runs the timed ops once, one after another, timing each op from
// its start. With a tracer, each op's real call becomes a span; pass
// returns the span ids, indexed like the timed ops, for the stage replay
// that runs after the pass.
func pass(w *workload, ops []op, r runner, tr *tracer, t *tally) []int64 {
	timed := ops[w.warm:]
	lat := make([]time.Duration, len(timed))
	outs := make([]outcome, len(timed))
	ids := make([]int64, len(timed))
	cpu0, host0 := processCPU(), readHostCPU()
	begin := time.Now()
	for i := range timed {
		start := time.Now()
		outs[i] = r.do(context.Background(), &timed[i])
		end := time.Now()
		lat[i] = end.Sub(start)
		ids[i] = tr.record("op", w.warm+i, 0, start, end)
	}
	t.elapsed += time.Since(begin)
	t.cpu += processCPU() - cpu0
	t.host = t.host.add(readHostCPU().sub(host0))
	for i := range timed {
		t.add(w, &timed[i], outs[i], lat[i])
	}
	return ids
}

// runUntraced makes the run's timed passes, each on a freshly set-up
// program. Every pass is preceded by the same number of set-ups (the last
// one serves the pass), at least minSetups in all, so the set-up samples
// are spread over the run like the passes.
func runUntraced(w *workload, ops []op, seed int64, seconds time.Duration) (*tally, []float64, error) {
	t := newTally()
	var setups []float64
	passes := w.passes(seconds)
	perPass := (minSetups + passes - 1) / passes
	for p := 0; p < passes; p++ {
		var r runner
		for k := 0; k < perPass; k++ {
			if r != nil {
				if err := r.close(); err != nil {
					return nil, nil, err
				}
			}
			var d time.Duration
			var err error
			if r, d, err = setup(w, ops, seed, nil); err != nil {
				return nil, nil, err
			}
			setups = append(setups, d.Seconds())
		}
		pass(w, ops, r, nil, t)
		if err := r.close(); err != nil {
			return nil, nil, err
		}
		// Collect the finished pass's garbage outside the timed phase, so
		// each pass starts from the same heap.
		runtime.GC()
	}
	return t, setups, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the end-to-end metrics of untraced passes.
func endToEnd(t *tally, setups []float64) (map[string]metric, error) {
	p99 := percentile(t.lat, 0.99)
	beyond := 0
	for _, v := range t.lat {
		if v > p99 {
			beyond++
		}
	}
	if beyond < 10 {
		return nil, fmt.Errorf("only %d ops beyond p99; the op list is too short", beyond)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"p50_ms":       {percentile(t.lat, 0.50), "ms"},
		"p99_ms":       {p99, "ms"},
		"ops_per_s":    {float64(t.ops) / t.elapsed.Seconds(), "1/s"},
		"decided_frac": {ratio(float64(t.decided), float64(t.items)), "1"},
		"slo_frac":     {ratio(float64(t.inSLO), float64(t.items)), "1"},
		"peak_rss_mb":  {rss, "MB"},
	}, nil
}

// layerUnit gives a per-layer metric its unit by its name's suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"):
		return "1"
	case strings.HasSuffix(name, "_kb_per_op"):
		return "KB"
	case strings.HasSuffix(name, "ns_per_proposal"):
		return "ns"
	}
	return "count"
}

// runTraced makes one untraced pass (the reference for the tracing
// overhead) and one traced pass. The program's counters are read around
// the traced pass alone; the stage replay runs after the second read, so
// its calls never reach the program's counters, queues or caches.
func runTraced(w *workload, ops []op, seed int64, traceDir string) (*tally, map[string]metric, error) {
	ref := newTally()
	r, _, err := setup(w, ops, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	pass(w, ops, r, nil, ref)
	if err := r.close(); err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	r, _, err = setup(w, ops, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	before := flatten(r.counters())
	t := newTally()
	ids := pass(w, ops, r, tr, t)
	after := flatten(r.counters())
	for i, id := range ids {
		r.replay(w.warm+i, &ops[w.warm+i], id)
	}
	replayed := r.counters().replay
	if err := r.close(); err != nil {
		return nil, nil, err
	}
	spans := tr.selfByName()
	tp := tracedPass{
		ops:   t.ops,
		calls: t.calls, retried: t.retried, okCalls: t.okCalls, selfNanos: t.selfNanos,
		opMs: sum(t.lat), before: before, after: after, replay: replayed, spans: spans,
		untracedMeanMs: mean(ref.lat),
		tracedMeanMs:   mean(t.lat),
	}
	if path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	out := map[string]metric{}
	for name, v := range layerMetrics(tp) {
		out[name] = metric{v, layerUnit(name)}
	}
	// The reference pass's outcomes are checked like any other.
	ref.merge(t)
	return ref, out, nil
}

// merge folds another tally's checked outcomes and shares into t (the
// latencies stay apart: each pass reports its own).
func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.elapsed += o.elapsed
	t.cpu += o.cpu
	t.host = t.host.add(o.host)
	t.failed += o.failed
	t.items += o.items
	t.decided += o.decided
	t.unsat += o.unsat
	t.optimize += o.optimize
	t.wrong = append(t.wrong, o.wrong...)
	for k, v := range o.familyDecided {
		t.familyDecided[k] += v
	}
	for k, v := range o.familyItems {
		t.familyItems[k] += v
	}
	for k, v := range o.classOps {
		t.classOps[k] += v
	}
}

func main() {
	// The benchmark runs the program on one P. On a shared host of a few
	// vCPUs, a program spread over all of them waits for whichever one the
	// hypervisor or a neighbour holds, so its timings follow the host more
	// than the code. The workers the workloads configure (BatchWorkers,
	// JobWorkers = nproc) still run, interleaved on the one P.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "minimum measured seconds (whole passes over the op list)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

func run(w *workload, seed int64, seconds time.Duration, traced bool, traceDir string) (*report, error) {
	ops, err := w.ops(seed, w.warm, w.timed)
	if err != nil {
		return nil, fmt.Errorf("generating ops: %w", err)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	var t *tally
	var ms map[string]metric
	if traced {
		t, ms, err = runTraced(w, ops, seed, traceDir)
	} else {
		var setups []float64
		if t, setups, err = runUntraced(w, ops, seed, seconds); err == nil {
			ms, err = endToEnd(t, setups)
		}
	}
	if err != nil {
		return nil, err
	}
	t.summary(os.Stderr)
	for i, msg := range t.wrong {
		if i < 10 {
			fmt.Fprintln(os.Stderr, "perfbench: wrong verdict:", msg)
		}
	}
	return &report{
		Correct:   len(t.wrong) == 0 && t.failed == 0,
		Attempted: t.ops,
		Failed:    t.failed,
		Metrics:   ms,
	}, nil
}

// ---- statistics ----

func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

// resetPeakRSS frees the garbage of input generation and oracle
// labelling and restarts the kernel's peak-RSS mark at the current
// resident set, so peakRSSMB sees the workload alone.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since resetPeakRSS
// (VmHWM), which holds the whole workload stack: program, in-process
// servers, client and the op list.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("reading VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// summary prints the per-class latency shares and per-family decided
// counts to w, for reading a run by eye.
func (t *tally) summary(w io.Writer) {
	classes := make([]string, 0, len(t.classLat))
	for c := range t.classLat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		v := t.classLat[c]
		fmt.Fprintf(w, "perfbench: class %-8s share %.3f p50 %.3fms max %.3fms\n",
			c, float64(t.classOps[c])/float64(t.ops), percentile(v, 0.5), percentile(v, 1))
	}
	fmt.Fprintf(w, "perfbench: timed %.2fs wall, process CPU %.4f ms/op (%.2f of wall), host steal %.3f of CPU time\n",
		t.elapsed.Seconds(), ratio(float64(t.cpu)/1e6, float64(t.ops)),
		ratio(t.cpu.Seconds(), t.elapsed.Seconds()), ratio(t.host.steal, t.host.total))
	fmt.Fprintf(w, "perfbench: share unsat-labelled %.3f optimize %.3f\n",
		ratio(float64(t.unsat), float64(t.items)), ratio(float64(t.optimize), float64(t.items)))
	fams := make([]string, 0, len(t.familyItems))
	for f := range t.familyItems {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		fmt.Fprintf(w, "perfbench: family %-16s decided %d/%d\n", f, t.familyDecided[f], t.familyItems[f])
	}
}

// processCPU is the CPU time of the whole process. The kernel leaves
// hypervisor steal out of it, so comparing it with wall time shows how
// much of a slow run was lost to a busy host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the host-wide CPU time split of /proc/stat, in ticks.
type hostCPU struct{ steal, total float64 }

func (h hostCPU) add(o hostCPU) hostCPU { return hostCPU{h.steal + o.steal, h.total + o.total} }
func (h hostCPU) sub(o hostCPU) hostCPU { return hostCPU{h.steal - o.steal, h.total - o.total} }

// readHostCPU reads the summed "cpu" line of /proc/stat; it is zero
// where that file is missing.
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		var v float64
		fmt.Sscan(f, &v)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}
