// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in-process through the public entry points —
// loadgen.Run, scenario.Run, or webgen → corpus → report — and reports
// how fast the simulator runs in host time, checking the simulated
// output of every iteration.
//
//	perfbench --workload loadgen|matrix|pipeline --seed N --seconds S --trace 0|1
//
// Iteration i uses seed N+i. Iteration 0 is a warm-up: its time is the
// cold_run_s diagnostic and its output is hashed into sim_digest. With
// --trace 0 the remaining iterations run at workers=nproc for S
// seconds and give the end-to-end metrics. With --trace 1 the run is
// split in three: untraced at workers=nproc, untraced at workers=1, and
// traced at workers=1, whose spans and layer probes give the per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload   *workload
	seed       int64
	seconds    float64
	trace      bool
	traceDir   string
	setupProbe bool
}

// prepare is everything a run does before its first iteration; a
// --setup-probe process stops right after it, which is what setup_s
// times.
func prepare(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: loadgen, matrix or pipeline")
	seed := fs.Int64("seed", 1, "seed of the first iteration; iteration i uses seed+i")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	traceDir := fs.String("trace-dir", "", "directory to write the traced run's spans to (default: not written)")
	setupProbe := fs.Bool("setup-probe", false, "exit once set up (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: *traceDir, setupProbe: *setupProbe}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := prepare(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if opts.setupProbe {
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	b := &bench{w: opts.workload, seed: opts.seed, nextSeed: opts.seed, log: stderr}
	var res result
	if opts.trace {
		res, err = b.traced(opts)
	} else {
		res, err = b.endToEnd(opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range res.lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(res.final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.final.Correct {
		return 1
	}
	return 0
}

// envRecord is stored with every result: a scaling figure is only
// meaningful when GOMAXPROCS is at least the worker count.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Valid      bool   `json:"valid"`
}

func currentEnv() envRecord {
	e := envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	e.Valid = e.GOMAXPROCS >= e.Workers
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	lines []string // human-readable lines and the run record
	final finalLine
}

// bench runs one workload's iterations and counts them.
type bench struct {
	w                 *workload
	seed, nextSeed    int64
	attempted, failed int
	log               io.Writer
}

// iteration is one finished iteration that passed its checks.
type iteration struct {
	o       outcome
	output  []byte
	seconds float64
	root    int // the iteration's span in the tracer, -1 untraced
	mallocs uint64
	bytes   uint64
	memMiB  float64 // peak resident Go memory during the iteration
}

// iterate runs the next iteration at workers and checks it. It reports
// false for an iteration that returned an error or failed a check.
func (b *bench) iterate(workers int, tr *tracer) (iteration, bool) {
	seed := b.nextSeed
	b.nextSeed++
	b.attempted++
	// Start every iteration from a collected heap, as a fresh process
	// would, so no iteration pays for the garbage of the one before.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mem := startMemPeak()
	root := tr.begin("iteration")
	start := time.Now()
	o, err := b.w.run(seed, workers, b.w.size, tr)
	secs := time.Since(start).Seconds()
	tr.end(root)
	memMiB := mem.end()
	runtime.ReadMemStats(&after)
	var out []byte
	if err == nil {
		out, err = o.verify()
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s seed %d: %v\n", b.w.name, seed, err)
		return iteration{}, false
	}
	return iteration{o: o, output: out, seconds: secs, root: root, memMiB: memMiB,
		mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, true
}

// phase is the passing iterations of one measurement.
type phase []iteration

// measure runs iterations at workers until budget has passed, at least
// one.
func (b *bench) measure(workers int, budget time.Duration, tr *tracer) phase {
	var p phase
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		if it, ok := b.iterate(workers, tr); ok {
			p = append(p, it)
		}
	}
	return p
}

// rates is items finished per host second, per iteration.
func (p phase) rates() []float64 {
	r := make([]float64, len(p))
	for i, it := range p {
		r[i] = float64(it.o.items()) / it.seconds
	}
	return r
}

// rate is the median of rates.
func (p phase) rate() float64 { return median(p.rates()) }

// memPeak is the median of the iterations' peak resident Go memory.
func (p phase) memPeak() float64 {
	m := make([]float64, len(p))
	for i, it := range p {
		m[i] = it.memMiB
	}
	return median(m)
}

// perItem is the heap allocations, in objects and bytes, per item.
func (p phase) perItem() (allocs, bytes float64) {
	var items, mallocs, total uint64
	for _, it := range p {
		items += uint64(it.o.items())
		mallocs += it.mallocs
		total += it.bytes
	}
	if items == 0 {
		return 0, 0
	}
	return float64(mallocs) / float64(items), float64(total) / float64(items)
}

// warmUp runs iteration 0, whose time is cold_run_s and whose output
// gives sim_digest.
func (b *bench) warmUp(workers int) (coldS float64, digest string) {
	it, ok := b.iterate(workers, nil)
	if !ok {
		return 0, "failed"
	}
	sum := sha256.Sum256(it.output)
	return it.seconds, hex.EncodeToString(sum[:8])
}

// identical runs the small input of seed at workers=1 and at workers
// and reports whether both outputs pass their checks and match byte
// for byte.
func (b *bench) identical(workers int) error {
	var outs [2][]byte
	for i, n := range []int{1, workers} {
		o, err := b.w.run(b.seed, n, b.w.small, nil)
		if err == nil {
			outs[i], err = o.verify()
		}
		if err != nil {
			return fmt.Errorf("identity input at workers=%d: %w", n, err)
		}
	}
	if string(outs[0]) != string(outs[1]) {
		return fmt.Errorf("identity input: output at workers=1 and workers=%d differ", workers)
	}
	return nil
}

// setupLaunches is how many --setup-probe processes setup_s is the
// median of.
const setupLaunches = 31

// measureSetup launches this program with --setup-probe and times, for
// each launch, the wall time from starting the process to its ready
// line: process start, runtime and package initialisation, and prepare.
func measureSetup(opts options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"--setup-probe", "--workload", opts.workload.name,
		"--seed", strconv.FormatInt(opts.seed, 10)}
	times := make([]float64, 0, setupLaunches)
	for i := 0; i < setupLaunches; i++ {
		cmd := exec.Command(exe, args...)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(start)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup probe: unexpected output %q", line)
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// summary is what a run prints besides its metrics.
type summary struct {
	env      envRecord
	identity error   // the workers=1 vs workers=nproc identity check
	coldS    float64 // the warm-up iteration's time
	digest   string  // hash of the warm-up iteration's output
	note     string  // how the metrics were measured
	record   map[string]any
}

// finish assembles the printed lines and the final result line.
func (b *bench) finish(sum summary, metrics map[string]float64, defs []metricDef) result {
	env := sum.env
	lines := []string{
		fmt.Sprintf("perfbench %s: seed %d, nproc %d, GOMAXPROCS %d, workers %d, %s, commit %s",
			b.w.name, b.seed, env.NProc, env.GOMAXPROCS, env.Workers, env.GoVersion, env.Commit),
	}
	if !env.Valid {
		lines = append(lines, "INVALID: GOMAXPROCS is below the worker count; scaling figures mean nothing")
	}
	if sum.identity != nil {
		lines = append(lines, "identity check FAILED: "+sum.identity.Error())
	} else {
		lines = append(lines, fmt.Sprintf("identity check: small input identical at workers=1 and workers=%d", env.Workers))
	}
	lines = append(lines,
		sum.note,
		fmt.Sprintf("%-24s %g (%d of %d iterations)", "failed_frac", ratio(b.failed, b.attempted), b.failed, b.attempted),
		fmt.Sprintf("%-24s %-14.6g s", "cold_run_s", sum.coldS),
		fmt.Sprintf("%-24s %s", "sim_digest", sum.digest))

	final := finalLine{
		Correct:   b.failed == 0 && sum.identity == nil,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := metrics[d.name]
		final.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		label := d.name
		if d.name == "items_per_s" {
			label = b.w.item + "_per_s"
		}
		lines = append(lines, fmt.Sprintf("%-24s %-14.6g %s", label, v, d.unit))
	}

	record := map[string]any{
		"workload":    b.w.name,
		"seed":        b.seed,
		"env":         env,
		"attempted":   b.attempted,
		"failed":      b.failed,
		"failed_frac": ratio(b.failed, b.attempted),
		"identity_ok": sum.identity == nil,
		"cold_run_s":  sum.coldS,
		"sim_digest":  sum.digest,
	}
	for k, v := range sum.record {
		record[k] = v
	}
	if rec, err := json.Marshal(record); err == nil {
		lines = append(lines, "record "+string(rec))
	}
	return result{lines: lines, final: final}
}

func (b *bench) endToEnd(opts options) (result, error) {
	env := currentEnv()
	setup, err := measureSetup(opts)
	if err != nil {
		return result{}, err
	}
	coldS, digest := b.warmUp(env.Workers)
	p := b.measure(env.Workers, time.Duration(opts.seconds*float64(time.Second)), nil)
	allocs, bytes := p.perItem()
	identity := b.identical(env.Workers)
	m := map[string]float64{
		"items_per_s":          p.rate(),
		"setup_s":              setup,
		"allocs_per_item":      allocs,
		"alloc_bytes_per_item": bytes,
		"mem_peak_mb":          p.memPeak(),
	}
	return b.finish(summary{
		env: env, identity: identity, coldS: coldS, digest: digest,
		note: fmt.Sprintf("%s_per_s is the median of %d timed iterations of %d %s at workers=%d",
			b.w.item, len(p), b.w.size, b.w.sizeOf, env.Workers),
		record: map[string]any{"timed_iterations": len(p), "iteration_rates": p.rates(), "rss_hwm_mb": peakRSSMB()},
	}, m, endToEnd), nil
}

// gcCPU returns the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (b *bench) traced(opts options) (result, error) {
	env := currentEnv()
	coldS, digest := b.warmUp(env.Workers)
	third := time.Duration(opts.seconds * float64(time.Second) / 3)

	gc0, total0 := gcCPU()
	parallel := b.measure(env.Workers, third, nil)
	gc1, total1 := gcCPU()
	single := b.measure(1, third, nil)
	tr := newTracer()
	traced := b.measure(1, third, tr)
	if len(parallel) == 0 || len(single) == 0 || len(traced) == 0 {
		return result{}, fmt.Errorf("%s: %d of %d iterations failed", b.w.name, b.failed, b.attempted)
	}

	// Attribute the traced iteration of median duration.
	secs := make([]float64, len(traced))
	for i, it := range traced {
		secs[i] = it.seconds
	}
	mid := median(secs)
	pick := traced[0]
	for _, it := range traced {
		if math.Abs(it.seconds-mid) < math.Abs(pick.seconds-mid) {
			pick = it
		}
	}
	m, err := layerMetrics(pick.o, tr, pick.root)
	if err != nil {
		return result{}, err
	}
	m["parallel.speedup"] = parallel.rate() / single.rate()
	m["gc.cpu_frac"] = ratio(gc1-gc0, total1-total0)
	m["trace.overhead_frac"] = (traced.rate() - single.rate()) / single.rate()
	if opts.traceDir != "" {
		path := filepath.Join(opts.traceDir, fmt.Sprintf("trace-%s-seed%d.ndjson", b.w.name, b.seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
	}
	return b.finish(summary{
		env: env, identity: b.identical(env.Workers), coldS: coldS, digest: digest,
		note: fmt.Sprintf("per-layer figures from the traced iteration of median time among %d at workers=1", len(traced)),
		record: map[string]any{
			"iterations_parallel":  len(parallel),
			"iterations_single":    len(single),
			"iterations_traced":    len(traced),
			"items_per_s_parallel": parallel.rate(),
			"items_per_s_single":   single.rate(),
			"items_per_s_traced":   traced.rate(),
		},
	}, m, perLayer), nil
}
