package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/loadgen"
	"respectorigin/internal/report"
	"respectorigin/internal/scenario"
	"respectorigin/internal/webgen"
)

// workload is one named input family. run executes one iteration of
// the given size through the system's public entry points; the timer
// covers run only, and the returned outcome is checked afterwards.
type workload struct {
	name   string
	item   string // what items_per_s counts: users, cells or pages
	size   int    // input size of a timed iteration, in sizeOf
	sizeOf string // users or sites
	small  int    // size of the workers=1 vs workers=nproc identity check
	run    func(seed int64, workers, size int, tr *tracer) (outcome, error)
}

// outcome is one iteration's simulated result.
type outcome interface {
	// items is how many users, cells or pages the iteration finished.
	items() int
	// verify checks the simulated output and returns its canonical
	// bytes: the loadgen NDJSON summary, the matrix cell NDJSON or the
	// pipeline report text.
	verify() ([]byte, error)
}

var workloads = []*workload{
	{name: "loadgen", item: "users", size: 30000, sizeOf: "users", small: 2000, run: runLoadgen},
	{name: "matrix", item: "cells", size: 150, sizeOf: "sites", small: 20, run: runMatrix},
	{name: "pipeline", item: "pages", size: 4000, sizeOf: "sites", small: 300, run: runPipeline},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// errCheck marks an iteration whose output failed a consistency check.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// --- loadgen: open-loop serving, one short-lived client per user ---

func loadgenConfig(seed int64, workers, users int) loadgen.Config {
	cfg := loadgen.DefaultConfig()
	cfg.Users = users
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

type loadgenOutcome struct {
	cfg loadgen.Config
	res loadgen.Result
}

func runLoadgen(seed int64, workers, users int, tr *tracer) (outcome, error) {
	cfg := loadgenConfig(seed, workers, users)
	sp := tr.begin("loadgen.run")
	res, err := loadgen.Run(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &loadgenOutcome{cfg: cfg, res: res}, nil
}

func (o *loadgenOutcome) items() int { return o.res.Users }

func (o *loadgenOutcome) verify() ([]byte, error) {
	if err := checkLoadgen(o.cfg, o.res); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := loadgen.WriteNDJSON(&buf, o.res); err != nil {
		return nil, checkf("loadgen summary: %v", err)
	}
	return buf.Bytes(), nil
}

// checkLoadgen rejects a result whose connection accounting, latency
// quantiles or coalescing rate are inconsistent.
func checkLoadgen(cfg loadgen.Config, r loadgen.Result) error {
	if r.Users != cfg.Users {
		return checkf("loadgen: %d users, want %d", r.Users, cfg.Users)
	}
	if r.FreshConns+r.ReusedReqs+r.FailedReqs != r.Requests {
		return checkf("loadgen: fresh_conns %d + reused_reqs %d + failed_reqs %d != requests %d",
			r.FreshConns, r.ReusedReqs, r.FailedReqs, r.Requests)
	}
	q := []float64{r.P50Ms, r.P90Ms, r.P99Ms, r.P999Ms, r.MaxMs}
	for i := 1; i < len(q); i++ {
		if !(q[i-1] <= q[i]) {
			return checkf("loadgen: latency quantiles not ordered: p50 %v p90 %v p99 %v p99.9 %v max %v",
				q[0], q[1], q[2], q[3], q[4])
		}
	}
	if !(r.CoalesceRate >= 0 && r.CoalesceRate <= 1) {
		return checkf("loadgen: coalesce_rate %v outside [0,1]", r.CoalesceRate)
	}
	return nil
}

// --- matrix: the persona × archetype × profile × transport sweep ---

func matrixConfig(seed int64, workers, sites int) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Sites = sites
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

type matrixOutcome struct {
	cfg scenario.Config
	res *scenario.Result
}

func runMatrix(seed int64, workers, sites int, tr *tracer) (outcome, error) {
	cfg := matrixConfig(seed, workers, sites)
	sp := tr.begin("scenario.run")
	res, err := scenario.Run(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &matrixOutcome{cfg: cfg, res: res}, nil
}

func (o *matrixOutcome) items() int { return len(o.res.Cells) }

// cellsPerArchetype is how many cells replay each archetype's corpus.
func (o *matrixOutcome) cellsPerArchetype() int {
	return len(o.cfg.Personas) * len(o.cfg.Profiles) * len(o.cfg.Transports)
}

func (o *matrixOutcome) verify() ([]byte, error) {
	want := len(o.cfg.Archetypes) * o.cellsPerArchetype()
	if len(o.res.Cells) != want {
		return nil, checkf("matrix: %d cells, want %d", len(o.res.Cells), want)
	}
	for _, c := range o.res.Cells {
		if c.Pages <= 0 || c.Coalesced > c.Reused || c.Reused > c.Requests {
			return nil, checkf("matrix: cell %s/%s/%s/%s: pages %d, coalesced %d, reused %d, requests %d",
				c.Persona, c.Archetype, c.Profile, c.DNS, c.Pages, c.Coalesced, c.Reused, c.Requests)
		}
	}
	var buf bytes.Buffer
	if err := o.res.WriteNDJSON(&buf); err != nil {
		return nil, checkf("matrix cells: %v", err)
	}
	return buf.Bytes(), nil
}

// --- pipeline: generate → columnar corpus → decode → report ---

type pipelineOutcome struct {
	generated, decoded int
	corpusBytes        int
	report             string
}

func runPipeline(seed int64, workers, sites int, tr *tracer) (outcome, error) {
	gcfg := webgen.DefaultConfig()
	gcfg.Sites = sites
	gcfg.Seed = seed
	gcfg.Workers = workers
	blob, gen, err := generateColumnar(gcfg, tr)
	if err != nil {
		return nil, err
	}

	sp := tr.begin("corpus.decode")
	pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(blob), corpus.FormatColumnar))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decode corpus: %w", err)
	}

	sp = tr.begin("report.index")
	c := report.NewCorpusWorkers(&webgen.Dataset{Pages: pages, ASDB: webgen.RebuildASDB(pages)}, workers)
	tr.end(sp)

	sp = tr.begin("report.tables")
	var text strings.Builder
	_, t1 := c.Table1(5)
	_, t2 := c.Table2(10)
	_, _, t3 := c.Table3()
	_, f3 := c.Figure3()
	_, hl := c.Headline()
	for _, s := range []string{t1, t2, t3, f3, hl} {
		text.WriteString(s)
	}
	tr.end(sp)

	return &pipelineOutcome{generated: gen, decoded: len(pages), corpusBytes: len(blob), report: text.String()}, nil
}

// generateColumnar streams cfg's corpus into the columnar format, the
// way cmd/crawl writes it and scenario.Run builds its per-archetype
// corpora. Under a tracer the corpus writes are child spans of the
// generation span, so webgen's self time excludes them.
func generateColumnar(cfg webgen.Config, tr *tracer) ([]byte, int, error) {
	var buf bytes.Buffer
	w := corpus.NewWriter(&buf, corpus.FormatColumnar)
	sp := tr.begin("webgen.generate")
	res, err := webgen.GenerateStream(cfg, func(p *har.Page) error {
		s := tr.begin("corpus.encode")
		err := w.Write(p)
		tr.end(s)
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("generate corpus: %w", err)
	}
	sp = tr.begin("corpus.encode")
	err = w.Close()
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("encode corpus: %w", err)
	}
	return buf.Bytes(), res.Pages, nil
}

func (o *pipelineOutcome) items() int { return o.generated }

func (o *pipelineOutcome) verify() ([]byte, error) {
	if o.generated <= 0 || o.decoded != o.generated {
		return nil, checkf("pipeline: decoded %d pages, generated %d", o.decoded, o.generated)
	}
	if o.report == "" {
		return nil, checkf("pipeline: empty report")
	}
	return []byte(o.report), nil
}
