package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/cdn"
	"respectorigin/internal/har"
	"respectorigin/internal/loadgen"
	"respectorigin/internal/scenario"
)

// The browser probes split browser.Request time into the browser's own
// work and the Environment calls it makes without timing each call,
// which would cost more than many of the calls themselves. A first pass
// records every Environment call; a second, timed pass runs the same
// requests against the bare environment; a third times the recorded
// calls alone. The passes are deterministic, so the second makes
// exactly the calls the first recorded.

// envCall is one recorded Environment call.
type envCall struct {
	kind int
	host string
	ip   netip.Addr
}

const (
	callLookup = iota
	callLookupTTL
	callCertSANs
	callOriginSet
	callReachable
	callSupportsH3
)

// recorder is a browser.Environment that forwards to another and logs
// every call.
type recorder struct {
	inner browser.Environment
	calls *[]envCall
}

func (r *recorder) Lookup(host string) ([]netip.Addr, error) {
	*r.calls = append(*r.calls, envCall{kind: callLookup, host: host})
	return r.inner.Lookup(host)
}

func (r *recorder) CertSANs(host string, ip netip.Addr) []string {
	*r.calls = append(*r.calls, envCall{kind: callCertSANs, host: host, ip: ip})
	return r.inner.CertSANs(host, ip)
}

func (r *recorder) OriginSet(host string, ip netip.Addr) []string {
	*r.calls = append(*r.calls, envCall{kind: callOriginSet, host: host, ip: ip})
	return r.inner.OriginSet(host, ip)
}

func (r *recorder) Reachable(host string, ip netip.Addr) bool {
	*r.calls = append(*r.calls, envCall{kind: callReachable, host: host, ip: ip})
	return r.inner.Reachable(host, ip)
}

// cdnRecorder adds the optional Environment extensions a CDN
// implements, so the browser takes the paths it takes against the bare
// CDN.
type cdnRecorder struct {
	recorder
	c *cdn.CDN
}

func (r *cdnRecorder) LookupTTL(host string) ([]netip.Addr, uint32, error) {
	*r.calls = append(*r.calls, envCall{kind: callLookupTTL, host: host})
	return r.c.LookupTTL(host)
}

func (r *cdnRecorder) SupportsH3(host string) bool {
	*r.calls = append(*r.calls, envCall{kind: callSupportsH3, host: host})
	return r.c.SupportsH3(host)
}

// replayCalls makes the recorded calls against env again.
func replayCalls(env browser.Environment, calls []envCall) {
	for _, c := range calls {
		switch c.kind {
		case callLookup:
			sink, _ = env.Lookup(c.host)
		case callLookupTTL:
			sink, _, _ = env.(browser.TTLLookuper).LookupTTL(c.host)
		case callCertSANs:
			sink = env.CertSANs(c.host, c.ip)
		case callOriginSet:
			sink = env.OriginSet(c.host, c.ip)
		case callReachable:
			sink = env.Reachable(c.host, c.ip)
		case callSupportsH3:
			sink = env.(browser.AltSvcer).SupportsH3(c.host)
		}
	}
}

// browserProbe is the cost per browser.Request of the browser's own
// work and of the Environment calls it makes.
type browserProbe struct {
	requestNs, envNs float64
}

// probeBrowser drives loadgen-shaped clients against cfg's CDN. The
// browser's share includes building each client's browser and cache.
func probeBrowser(cfg loadgen.Config, clients int) browserProbe {
	c := buildCDN(cfg)
	var calls []envCall
	driveClients(cfg, clients, &cdnRecorder{recorder: recorder{inner: c, calls: &calls}, c: c}, c.ThirdParty)
	t := time.Now()
	requests := driveClients(cfg, clients, c, c.ThirdParty)
	total := time.Since(t)
	t = time.Now()
	replayCalls(c, calls)
	env := time.Since(t)
	return browserProbe{
		requestNs: float64((total - env).Nanoseconds()) / float64(requests),
		envNs:     float64(env.Nanoseconds()) / float64(requests),
	}
}

// driveClients runs loadgen-shaped clients against env and returns the
// requests made. Each client is a fresh browser with its own warm-path
// cache, pinned to one zone, making a few visits of one home-zone
// request plus one to three requests to thirdParty; the idle timeout
// drops pooled connections between distant visits.
func driveClients(cfg loadgen.Config, clients int, env browser.Environment, thirdParty string) int {
	rng := rand.New(rand.NewSource(cfg.Seed))
	modern := cfg.FirefoxShare + cfg.ChromeShare
	requests := 0
	for u := 0; u < clients; u++ {
		policy := browser.PolicyChromium
		if rng.Float64()*modern < cfg.FirefoxShare {
			policy = browser.PolicyFirefoxOrigin
		}
		cc := cache.New(cfg.Cache)
		b := browser.New(policy, browser.WithCache(cc))
		b.Proto = cfg.Proto
		home := zoneHost(rng.Intn(cfg.Zones))
		for visit := 0; visit == 0 || rng.Float64() < 1-1/cfg.VisitsMean; visit++ {
			if visit > 0 {
				gapMs := rng.ExpFloat64() * cfg.RevisitMeanSec * 1000
				cc.Clock().AdvanceMs(int64(gapMs))
				if gapMs >= cfg.IdleTimeoutSec*1000 {
					// DropConns edits the pool, so list the hosts first.
					var hosts []string
					for _, c := range b.Conns() {
						hosts = append(hosts, c.Host)
					}
					for _, h := range hosts {
						b.DropConns(h)
					}
				}
			}
			sink = b.Request(env, home)
			requests++
			for p := 1 + rng.Intn(3); p > 0; p-- {
				sink = b.Request(env, thirdParty)
				requests++
			}
		}
	}
	return requests
}

// pageEnv is the browser.Environment scenario.Run replays a page
// against, which is internal to that package, rebuilt from the page's
// entries the same way: each host resolves to its first recorded
// answer and presents its recorded certificate; the first-party
// cluster (the page's host and its subdomains) shares its servers and
// advertises itself as one origin set; and a recorded re-resolution
// re-homes the host as the replay reaches it.
type pageEnv struct {
	addrs        map[string][]netip.Addr
	sans         map[string][]string
	cluster      map[string]bool
	clusterAddrs map[netip.Addr]bool
	origins      []string
}

func newPageEnv(p *har.Page) *pageEnv {
	e := &pageEnv{addrs: map[string][]netip.Addr{}, sans: map[string][]string{}, cluster: map[string]bool{}}
	apexSuffix := "." + strings.TrimPrefix(p.Host, "www.")
	for i := range p.Entries {
		en := &p.Entries[i]
		if en.NewDNS && e.addrs[en.Host] == nil {
			e.addrs[en.Host] = en.DNSAnswer
		}
		if len(en.CertSANs) > 0 && e.sans[en.Host] == nil {
			e.sans[en.Host] = en.CertSANs
		}
		if en.Host == p.Host || strings.HasSuffix(en.Host, apexSuffix) {
			e.cluster[en.Host] = true
		}
	}
	for h := range e.cluster {
		e.origins = append(e.origins, h)
	}
	sort.Strings(e.origins)
	e.rebuildClusterAddrs()
	return e
}

func (e *pageEnv) rebuildClusterAddrs() {
	e.clusterAddrs = map[netip.Addr]bool{}
	for h := range e.cluster {
		for _, a := range e.addrs[h] {
			e.clusterAddrs[a] = true
		}
	}
}

// rehome applies a recorded re-resolution whose answer differs from
// the environment's current one, reporting whether it did.
func (e *pageEnv) rehome(en *har.Entry) bool {
	if !en.NewDNS || len(en.DNSAnswer) == 0 || slices.Equal(e.addrs[en.Host], en.DNSAnswer) {
		return false
	}
	e.addrs[en.Host] = en.DNSAnswer
	if e.cluster[en.Host] {
		e.rebuildClusterAddrs()
	}
	return true
}

func (e *pageEnv) Lookup(host string) ([]netip.Addr, error) {
	if a := e.addrs[host]; len(a) > 0 {
		return a, nil
	}
	return nil, fmt.Errorf("no recorded answer for %s", host)
}

func (e *pageEnv) CertSANs(host string, ip netip.Addr) []string {
	if s := e.sans[host]; s != nil {
		return s
	}
	return []string{host}
}

func (e *pageEnv) OriginSet(host string, ip netip.Addr) []string {
	if e.cluster[host] {
		return e.origins
	}
	return nil
}

func (e *pageEnv) Reachable(host string, ip netip.Addr) bool {
	if e.cluster[host] {
		return e.clusterAddrs[ip]
	}
	return slices.Contains(e.addrs[host], ip)
}

// replayProbe is the browser's own time, Environment calls excluded,
// replaying corpora the way matrix cells do, with the ticket store on
// and off. The difference is the time spent redeeming and minting
// tickets. cache counts what the warm-path caches served.
type replayProbe struct {
	withTickets, withoutTickets time.Duration
	cache                       cacheStats
}

// cacheStats counts a replay's requests and warm-path cache outcomes.
type cacheStats struct {
	requests            int
	dnsHits, dnsQueries int // lookups served by the DNS cache, and sent on the wire
	resumed, handshakes int // handshakes resumed with a ticket, and all handshakes
}

func (c *cacheStats) merge(o cacheStats) {
	c.requests += o.requests
	c.dnsHits += o.dnsHits
	c.dnsQueries += o.dnsQueries
	c.resumed += o.resumed
	c.handshakes += o.handshakes
}

// add counts a page's outcomes from b's per-page totals.
func (c *cacheStats) add(b *browser.Browser) {
	c.dnsHits += b.TotalDNSCacheHits
	c.dnsQueries += b.TotalDNS
	c.resumed += b.TotalResumed
	c.handshakes += b.TotalResumed + b.TotalCertMemoHits + b.TotalValidations
}

// probeReplay replays each corpus through every persona's browser, as
// the cells of one profile and transport do.
func probeReplay(corpora [][]*har.Page) replayProbe {
	var rp replayProbe
	for _, pages := range corpora {
		for _, pe := range scenario.Personas() {
			var calls [][]envCall
			st := replayCell(pe, pages, cache.Options{}, func(i int, e *pageEnv) browser.Environment {
				calls = append(calls, nil)
				return &recorder{inner: e, calls: &calls[i]}
			})
			rp.cache.merge(st)

			t := time.Now()
			replayCell(pe, pages, cache.Options{}, nil)
			on := time.Since(t)
			t = time.Now()
			replayCell(pe, pages, cache.Options{TicketLifetimeSeconds: cache.TicketsDisabled}, nil)
			off := time.Since(t)
			envs := make([]*pageEnv, len(pages))
			for i, p := range pages {
				envs[i] = newPageEnv(p)
			}
			t = time.Now()
			for i, c := range calls {
				replayCalls(envs[i], c)
			}
			env := time.Since(t)
			rp.withTickets += on - env
			rp.withoutTickets += off - env
		}
	}
	return rp
}

// replayCell replays pages as a matrix cell does: a fresh pool per page
// against that page's environment, one warm-path cache across the
// pages, the persona's pre-connects before each page's requests, and
// recorded re-resolutions applied as the replay reaches them. wrap,
// when non-nil, wraps each page's environment. The environments are
// built before the replay starts.
func replayCell(pe scenario.Persona, pages []*har.Page, opts cache.Options, wrap func(i int, e *pageEnv) browser.Environment) cacheStats {
	envs := make([]*pageEnv, len(pages))
	wrapped := make([]browser.Environment, len(pages))
	for i, p := range pages {
		envs[i] = newPageEnv(p)
		wrapped[i] = envs[i]
		if wrap != nil {
			wrapped[i] = wrap(i, envs[i])
		}
	}
	cc := cache.New(opts)
	b := browser.New(pe.Policy,
		browser.WithPoolLimits(pe.MaxConns, pe.MaxConnsPerHost),
		browser.WithSkipOriginDNS(pe.SkipOriginDNS),
		browser.WithCache(cc))
	var st cacheStats
	for i, p := range pages {
		b.Reset()
		seen := map[string]bool{}
		for j, opened := 0, 0; j < len(p.Entries) && opened < pe.PreconnectN; j++ {
			if h := p.Entries[j].Host; !seen[h] {
				seen[h] = true
				if b.Preconnect(wrapped[i], h) {
					opened++
				}
			}
		}
		for j := range p.Entries {
			en := &p.Entries[j]
			if envs[i].rehome(en) {
				cc.PutDNSVia(cache.TransportDo53, en.Host, en.DNSAnswer, cc.DefaultTTL())
			}
			sink = b.Request(wrapped[i], en.Host)
			st.requests++
		}
		st.add(b)
	}
	return st
}
