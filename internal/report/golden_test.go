package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/netsim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenOpts are the cache configurations the warm-path goldens pin:
// the defaults (every revisit resumes, 0-RTT under h3), no tickets
// (full handshakes the memo makes free; h3 full+token), and single-use
// tickets with no tokens (h3 resumed connections that still pay the
// Retry round trip).
var goldenOpts = []struct {
	label string
	opts  cache.Options
}{
	{"default", cache.Options{}},
	{"no-tickets", cache.Options{TicketLifetimeSeconds: cache.TicketsDisabled}},
	{"single-use, no-tokens", cache.Options{SingleUseTickets: true, TokenLifetimeSeconds: cache.TicketsDisabled}},
}

// warmColdSurface renders every warm-path table of one source under
// each golden cache configuration: the savings table under h1, h2 and
// h3, then the protocol sweep table.
func warmColdSurface(source string, warmCold func(int, cache.Options, core.Protocol) []core.VisitCosts, sweep func(int, cache.Options) []ProtoCosts) string {
	var sb strings.Builder
	for _, g := range goldenOpts {
		label := source + ", " + g.label
		for _, proto := range core.Protocols {
			sb.WriteString(SavingsTable(warmCold(3, g.opts, proto), label+", "+proto.String()))
		}
		sb.WriteString(ProtoSweepTable(sweep(3, g.opts), netsim.DefaultParams(), label))
	}
	return sb.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// The corpus warm/cold surfaces (report -cache -proto h1|h2|h3 and
// report -proto-sweep) are pinned byte for byte at 3 revisits.
// Regenerate with
//
//	go test ./internal/report -run TestWarmColdGolden -update-golden
func TestWarmColdGoldenCorpus(t *testing.T) {
	c := testCorpus(t, 300)
	checkGolden(t, "warmcold_corpus.golden", warmColdSurface("corpus", c.WarmCold, c.ProtoSweep))
}

// The deployment warm/cold surfaces (cdnsim -cache -proto h1|h2|h3 and
// cdnsim -proto-sweep) are pinned byte for byte at 3 revisits.
func TestWarmColdGoldenDeployment(t *testing.T) {
	d := NewDeployment(300, 7)
	checkGolden(t, "warmcold_deployment.golden", warmColdSurface("deployment", d.WarmCold, d.ProtoSweep))
}
