// Package bench is the repo's benchmark trajectory harness: a registry
// of hot-path and end-to-end benchmarks runnable from a plain binary
// (cmd/bench), with machine-readable results and a regression
// comparator. The committed BENCH_*.json files record the trajectory
// across PRs; CI replays the gated subset and fails on regressions.
package bench

import (
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// A Benchmark is one registered measurement. Gated benchmarks are the
// hot paths held to strict allocs/op budgets: Compare fails them on any
// allocs/op increase, not just on the ns/op threshold.
type Benchmark struct {
	Suite string
	Name  string
	Gated bool
	F     func(b *testing.B)
}

// ID returns the stable "suite/name" key results are matched by.
func (bm Benchmark) ID() string { return bm.Suite + "/" + bm.Name }

// MicroSuites are the per-package hot-path suites; "micro" selects all
// of them at once. The pipeline suite is excluded: it runs the full
// corpus→crawl→report stack and is priced accordingly.
var MicroSuites = []string{"hpack", "qpack", "h2", "obs", "measure", "corpus", "cache"}

// All returns every registered benchmark in deterministic order.
func All() []Benchmark {
	var out []Benchmark
	out = append(out, hpackSuite()...)
	out = append(out, qpackSuite()...)
	out = append(out, h2Suite()...)
	out = append(out, obsSuite()...)
	out = append(out, measureSuite()...)
	out = append(out, corpusSuite()...)
	out = append(out, cacheSuite()...)
	out = append(out, pipelineSuite()...)
	out = append(out, loadgenSuite()...)
	out = append(out, scenarioSuite()...)
	return out
}

// Select filters the registry by suite name. "micro" expands to every
// micro suite; "all" or "" selects everything.
func Select(suite string) ([]Benchmark, error) {
	all := All()
	if suite == "" || suite == "all" {
		return all, nil
	}
	want := map[string]bool{}
	for _, s := range strings.Split(suite, ",") {
		if s == "micro" {
			for _, m := range MicroSuites {
				want[m] = true
			}
			continue
		}
		want[s] = true
	}
	known := map[string]bool{}
	for _, bm := range all {
		known[bm.Suite] = true
	}
	for s := range want {
		if !known[s] {
			return nil, fmt.Errorf("unknown suite %q (have: %s, plus \"micro\" and \"all\")",
				s, strings.Join(suiteNames(all), ", "))
		}
	}
	var out []Benchmark
	for _, bm := range all {
		if want[bm.Suite] {
			out = append(out, bm)
		}
	}
	return out, nil
}

func suiteNames(all []Benchmark) []string {
	seen := map[string]bool{}
	var names []string
	for _, bm := range all {
		if !seen[bm.Suite] {
			seen[bm.Suite] = true
			names = append(names, bm.Suite)
		}
	}
	sort.Strings(names)
	return names
}

// Result is one benchmark's measurement as serialized into the
// BENCH_*.json trajectory files.
type Result struct {
	Suite       string  `json:"suite"`
	Name        string  `json:"name"`
	Gated       bool    `json:"gated"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// ID returns the "suite/name" key.
func (r Result) ID() string { return r.Suite + "/" + r.Name }

// File is the schema of a BENCH_*.json trajectory file.
type File struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Commit     string   `json:"commit,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// SchemaV1 identifies the current trajectory file layout.
const SchemaV1 = "respectorigin-bench/1"

// Run executes the given benchmarks via testing.Benchmark and collects
// results plus environment metadata. progress, when non-nil, is called
// with each result as it lands.
func Run(bms []Benchmark, progress func(Result)) File {
	f := File{
		Schema:     SchemaV1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
	}
	for _, bm := range bms {
		br := testing.Benchmark(bm.F)
		r := Result{
			Suite:       bm.Suite,
			Name:        bm.Name,
			Gated:       bm.Gated,
			N:           br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			BytesPerOp:  br.AllocedBytesPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
		}
		if br.Bytes > 0 && br.T > 0 {
			r.MBPerS = (float64(br.Bytes) * float64(br.N) / 1e6) / br.T.Seconds()
		}
		f.Benchmarks = append(f.Benchmarks, r)
		if progress != nil {
			progress(r)
		}
	}
	return f
}

// gitCommit best-effort resolves the working tree's HEAD for the env
// metadata block; results are comparable without it.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
