package scenario

import (
	"bytes"
	"fmt"

	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/netsim"
	"respectorigin/internal/parallel"
	"respectorigin/internal/webgen"
)

// Config parameterizes a matrix sweep. Zero-value slices select the
// full built-in axis.
type Config struct {
	// Seed and Sites parameterize the per-archetype corpora. Sites is
	// the attempt count per archetype (the usual success rate applies).
	Seed  int64
	Sites int
	// Workers fans the cell cross-product out; ≤ 0 selects GOMAXPROCS.
	// Output is byte-identical for every worker count.
	Workers int

	Personas   []Persona
	Archetypes []webgen.Archetype
	Profiles   []netsim.Profile
	Transports []cache.DNSTransport
}

// DefaultConfig returns the full built-in matrix at a small corpus
// scale.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		Sites:      150,
		Personas:   Personas(),
		Archetypes: webgen.Archetypes(),
		Profiles:   netsim.Profiles(),
		Transports: []cache.DNSTransport{cache.TransportDo53, cache.TransportDoH},
	}
}

// Cell is one point of the cross-product: one persona replaying one
// archetype's corpus under one network profile and resolver transport.
type Cell struct {
	Persona   string `json:"persona"`
	Archetype string `json:"archetype"`
	Profile   string `json:"profile"`
	DNS       string `json:"dns"`

	Pages    int `json:"pages"`
	Requests int `json:"requests"`

	// Connection economy.
	Conns     int `json:"conns"`          // fresh connections opened by requests
	Preconns  int `json:"preconns"`       // speculative sockets opened
	Wasted    int `json:"wasted_sockets"` // speculative sockets never ridden
	Evicted   int `json:"evicted"`        // connections closed by cap pressure
	Reused    int `json:"reused"`         // requests satisfied on a pooled connection
	Coalesced int `json:"coalesced"`      // reuses that crossed hostnames
	ViaOrigin int `json:"via_origin"`     // coalesced via an ORIGIN frame
	Got421    int `json:"got_421"`        // reuse attempts bounced with 421

	// Resolution and pricing.
	DNSQueries int     `json:"dns_queries"` // wire queries (cache hits excluded)
	SetupMs    float64 `json:"setup_ms"`    // modelled DNS + connection setup cost
}

// CoalescePct is the share of requests satisfied by cross-host
// coalescing.
func (c Cell) CoalescePct() float64 {
	if c.Requests == 0 {
		return 0
	}
	return 100 * float64(c.Coalesced) / float64(c.Requests)
}

// Result is a completed sweep: cells in cross-product order
// (archetype → persona → profile → transport).
type Result struct {
	Cells []Cell
}

// Run executes the sweep. One corpus is generated per archetype and
// round-tripped through the corpus API (encoded once, decoded once);
// every cell replaying that archetype shares the decoded pages
// read-only. Cells fan out through internal/parallel in fixed
// cross-product order, so the result — and every byte derived from it —
// is identical at any worker count.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	corpora := make([][]*har.Page, len(cfg.Archetypes))
	for i, a := range cfg.Archetypes {
		if _, corpora[i], err = buildCorpus(cfg, a); err != nil {
			return nil, err
		}
	}
	return &Result{Cells: replay(cfg, corpora)}, nil
}

// normalize fills empty axes with the built-in ones and validates every
// axis value up front.
func (cfg Config) normalize() (Config, error) {
	if cfg.Sites <= 0 {
		return cfg, fmt.Errorf("scenario: Sites must be positive")
	}
	if len(cfg.Personas) == 0 {
		cfg.Personas = Personas()
	}
	if len(cfg.Archetypes) == 0 {
		cfg.Archetypes = webgen.Archetypes()
	}
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = netsim.Profiles()
	}
	if len(cfg.Transports) == 0 {
		cfg.Transports = []cache.DNSTransport{cache.TransportDo53, cache.TransportDoH}
	}
	for _, a := range cfg.Archetypes {
		if err := a.Validate(); err != nil {
			return cfg, err
		}
	}
	for _, pr := range cfg.Profiles {
		if err := pr.Params.Validate(); err != nil {
			return cfg, fmt.Errorf("scenario: profile %q: %w", pr.Name, err)
		}
	}
	return cfg, nil
}

// buildCorpus generates one archetype's corpus and round-trips it
// through the corpus API, returning the columnar blob and its decoded
// pages: cells replay the decoded pages, never the generator directly.
func buildCorpus(cfg Config, a webgen.Archetype) ([]byte, []*har.Page, error) {
	var buf bytes.Buffer
	w := corpus.NewWriter(&buf, corpus.FormatColumnar)
	gcfg := webgen.DefaultConfig()
	gcfg.Sites = cfg.Sites
	gcfg.Seed = cfg.Seed
	gcfg.Workers = cfg.Workers
	gcfg.Archetype = a
	if _, err := webgen.GenerateStream(gcfg, w.Write); err != nil {
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	blob := buf.Bytes()
	pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(blob), corpus.FormatColumnar))
	return blob, pages, err
}

// replay runs the cell cross-product of a normalized config over the
// per-archetype corpora (indexed like cfg.Archetypes), sharing each
// corpus read-only across its cells.
func replay(cfg Config, corpora [][]*har.Page) []Cell {
	type spec struct {
		pages     []*har.Page
		archetype webgen.Archetype
		persona   Persona
		profile   netsim.Profile
		transport cache.DNSTransport
	}
	var specs []spec
	for i, a := range cfg.Archetypes {
		for _, pe := range cfg.Personas {
			for _, pr := range cfg.Profiles {
				for _, t := range cfg.Transports {
					specs = append(specs, spec{corpora[i], a, pe, pr, t})
				}
			}
		}
	}
	return parallel.Map(len(specs), cfg.Workers, func(i int) Cell {
		s := specs[i]
		return runCell(s.pages, s.archetype, s.persona, s.profile, s.transport)
	})
}

// runCell replays one archetype corpus through one persona under one
// profile and transport. The browser's pool resets per page (each load
// is a fresh browsing context) while the warm-path cache persists
// across the cell, so repeated third parties resolve and resume warm —
// under the cell's own transport key. pages are shared with every other
// cell of the archetype and must not be modified.
func runCell(pages []*har.Page, archetype webgen.Archetype, persona Persona, profile netsim.Profile, transport cache.DNSTransport) Cell {
	cell := Cell{
		Persona:   persona.Name,
		Archetype: archetype.String(),
		Profile:   profile.Name,
		DNS:       transport.String(),
	}
	cc := cache.New(cache.Options{})
	b := browser.New(persona.Policy,
		browser.WithPoolLimits(persona.MaxConns, persona.MaxConnsPerHost),
		browser.WithSkipOriginDNS(persona.SkipOriginDNS),
		browser.WithDNSTransport(transport),
		browser.WithCache(cc),
	)

	resolverConns := 0 // pages that touched the DoH resolver's wire
	resumed := 0
	for _, p := range pages {
		env := newPageEnv(p)
		// Each page load is a fresh browsing context: the pool and the
		// per-page totals reset, the warm-path cache persists.
		b.Reset()
		cell.Pages++

		if persona.PreconnectN > 0 {
			seen := map[string]bool{}
			opened := 0
			for i := range p.Entries {
				if opened >= persona.PreconnectN {
					break
				}
				h := p.Entries[i].Host
				if seen[h] {
					continue
				}
				seen[h] = true
				if b.Preconnect(env, h) {
					opened++
				}
			}
		}

		for i := range p.Entries {
			en := &p.Entries[i]
			if env.answerChanged(en) {
				// A recorded re-resolution (CDN migration): the
				// environment re-homes the host and the client's cached
				// answer is superseded the way a TTL expiry would.
				env.migrate(en.Host, en.DNSAnswer)
				cc.PutDNSVia(transport, en.Host, en.DNSAnswer, cc.DefaultTTL())
			}
			out := b.Request(env, en.Host)
			cell.Requests++
			if out.Coalesced() {
				cell.Coalesced++
			}
			if out.ViaOrigin {
				cell.ViaOrigin++
			}
		}
		cell.Conns += b.TotalNewConn
		cell.Preconns += b.TotalPreconns
		cell.Wasted += b.TotalPreconns - b.TotalPreconnsUsed
		cell.Evicted += b.TotalEvicted
		cell.Reused += b.TotalReused
		cell.Got421 += b.Total421
		cell.DNSQueries += b.TotalDNS
		resumed += b.TotalResumed
		if b.TotalDNS > 0 {
			resolverConns++
		}
	}
	cell.SetupMs = setupMs(cell, resumed, resolverConns, profile.Params, transport)
	return cell
}

// setupMs prices the cell's connection economy under the profile, in
// pure arithmetic from the profile parameters (no RNG — cells must be
// byte-stable). Every socket is one handshake priced by
// core.VisitCosts.SetupMs: a full TLS setup costs the TCP round trip,
// the handshake round trips, and certificate verification; a resumed
// handshake skips verification. Do53 resolution costs DNSMs per wire
// query; DoH pays one resolver-connection setup per page that reached
// the wire plus one resolver round trip per query — the transport's
// amortization trade.
func setupMs(cell Cell, resumed, resolverConns int, p netsim.Params, t cache.DNSTransport) float64 {
	scale := p.CostScale()
	full := cell.Conns + cell.Preconns - resumed
	if full < 0 {
		full = 0
	}
	// Persona browsers speak the default protocol, h2.
	ms := core.VisitCosts{ResumedTLS: resumed, FullHandshakes: full}.SetupMs(core.ProtoH2, p)
	switch t {
	case cache.TransportDoH:
		ms += float64(resolverConns) * (p.RTTMs + p.TLSRoundTrips*p.RTTMs) * scale
		ms += float64(cell.DNSQueries) * p.RTTMs * scale
	default:
		ms += float64(cell.DNSQueries) * p.DNSMs * scale
	}
	return ms
}
