package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"respectorigin/internal/scenario"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run launches itself to time set-up.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// metricName is the form BENCHMARK.json accepts for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
		if d.unit == "" || (d.better != "higher" && d.better != "lower") {
			t.Errorf("metric %q: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
	for _, name := range selfLayers {
		if !seen[name] {
			t.Errorf("self layer %q is not a per-layer metric", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the runner reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, runner has %d", names, len(workloads))
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, runner %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, runner %s %s %s", c.kind, i, g, d.name, d.unit, d.better)
			}
		}
	}
}

func TestSelfTimesPartitionRoot(t *testing.T) {
	tr := newTracer()
	root := tr.begin("iteration")
	a := tr.begin("webgen.generate")
	for i := 0; i < 3; i++ {
		e := tr.begin("corpus.encode")
		tr.end(e)
	}
	tr.end(a)
	d := tr.begin("corpus.decode")
	tr.end(d)
	tr.end(root)
	other := tr.begin("probe")
	tr.end(other)

	total := 0.0
	for name, s := range tr.selfTimes(root) {
		if s < 0 {
			t.Errorf("%s: negative self time %v", name, s)
		}
		if name == "probe" {
			t.Errorf("span outside the root counted")
		}
		total += s
	}
	if want := tr.spans[root].seconds(); math.Abs(total-want) > 1e-9 {
		t.Errorf("self times add to %v, root lasted %v", total, want)
	}
}

// runLines runs the benchmark and returns its standard output lines and
// exit code.
func runLines(t *testing.T, args ...string) ([]string, int) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run(args, &out, &errs)
	if errs.Len() > 0 {
		t.Logf("stderr: %s", errs.String())
	}
	return strings.Split(strings.TrimSpace(out.String()), "\n"), code
}

// TestRunReportsEveryMetric runs every workload briefly in both modes
// and checks the final line: every metric present with its unit, the
// iteration counts, and — for the traced run — that the layer self
// times and unattributed_s add up to the traced run's wall time.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				lines, code := runLines(t, "--workload", w.name, "--seed", "3", "--seconds", "0.01", "--trace", trace)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, strings.Join(lines, "\n"))
				}
				var final finalLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
					t.Fatal(err)
				}
				if !final.Correct || final.Failed != 0 || final.Attempted < 2 {
					t.Errorf("correct %v, attempted %d, failed %d", final.Correct, final.Attempted, final.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(final.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(final.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := final.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: %+v present %v", d.name, v, ok)
					}
				}
				if trace == "0" {
					for _, name := range []string{"items_per_s", "setup_s", "allocs_per_item", "mem_peak_mb"} {
						if final.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v", name, final.Metrics[name].Value)
						}
					}
					return
				}
				sum := final.Metrics["unattributed_s"].Value
				for _, name := range selfLayers {
					sum += final.Metrics[name].Value
				}
				if run := final.Metrics["trace.run_s"].Value; run <= 0 || math.Abs(sum-run) > 1e-9*run {
					t.Errorf("self times + unattributed_s = %v, trace.run_s = %v", sum, run)
				}
			})
		}
	}
}

func TestLoadgenCheckRejectsInconsistentResult(t *testing.T) {
	o, err := runLoadgen(5, 1, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := o.(*loadgenOutcome)
	if _, err := good.verify(); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	for name, spoil := range map[string]func(r *loadgenOutcome){
		"connections": func(o *loadgenOutcome) { o.res.FreshConns++ },
		"quantiles":   func(o *loadgenOutcome) { o.res.P99Ms = o.res.P999Ms + 1 },
		"nan":         func(o *loadgenOutcome) { o.res.P90Ms = math.NaN() },
		"coalesce":    func(o *loadgenOutcome) { o.res.CoalesceRate = 1.5 },
		"users":       func(o *loadgenOutcome) { o.res.Users-- },
	} {
		bad := *good
		spoil(&bad)
		if _, err := bad.verify(); !errors.Is(err, errCheck) {
			t.Errorf("%s: inconsistent result accepted (err %v)", name, err)
		}
	}
}

func TestMatrixAndPipelineChecks(t *testing.T) {
	cfg := matrixConfig(1, 1, 1)
	cells := make([]scenario.Cell, 72)
	for i := range cells {
		cells[i] = scenario.Cell{Pages: 1, Requests: 4, Reused: 2, Coalesced: 1}
	}
	ok := &matrixOutcome{cfg: cfg, res: &scenario.Result{Cells: cells}}
	if _, err := ok.verify(); err != nil {
		t.Fatalf("consistent matrix rejected: %v", err)
	}
	for name, spoil := range map[string]func(c []scenario.Cell) []scenario.Cell{
		"missing cell": func(c []scenario.Cell) []scenario.Cell { return c[1:] },
		"no pages":     func(c []scenario.Cell) []scenario.Cell { c[3].Pages = 0; return c },
		"coalesced":    func(c []scenario.Cell) []scenario.Cell { c[5].Coalesced = 3; return c },
		"reused":       func(c []scenario.Cell) []scenario.Cell { c[7].Reused = 5; return c },
	} {
		bad := spoil(append([]scenario.Cell(nil), cells...))
		o := &matrixOutcome{cfg: cfg, res: &scenario.Result{Cells: bad}}
		if _, err := o.verify(); !errors.Is(err, errCheck) {
			t.Errorf("%s: inconsistent matrix accepted (err %v)", name, err)
		}
	}

	p := &pipelineOutcome{generated: 10, decoded: 9, report: "x"}
	if _, err := p.verify(); !errors.Is(err, errCheck) {
		t.Errorf("page count mismatch accepted (err %v)", err)
	}
}
