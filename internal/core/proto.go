package core

import (
	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/har"
)

// Protocol re-exports the browser package's protocol enum so callers
// configuring a Session need not import browser directly.
type Protocol = browser.Protocol

// Protocol values, zero value (h2) first.
const (
	ProtoH2 = browser.ProtoH2
	ProtoH1 = browser.ProtoH1
	ProtoH3 = browser.ProtoH3
)

// Protocols lists every protocol in sweep order (h1, h2, h3).
var Protocols = browser.Protocols

// ParseProtocol parses "h1", "h2" and "h3" (the -proto flag values).
func ParseProtocol(s string) (Protocol, error) { return browser.ParseProtocol(s) }

// ProtocolReplayCosts replays one recorded page load under the given
// protocol against a warm-path cache and returns what the visit paid.
// The page itself is the visit structure — which requests issued fresh
// DNS queries and handshakes (NewDNS/NewTLS) versus riding existing
// state — and the cache decides, per fresh setup, whether warm state
// makes it cheaper:
//
//   - a NewDNS entry consults the DNS cache before "querying"; misses
//     populate it with the entry's answer set under the cache's default
//     TTL (HAR records carry no TTLs);
//   - a fresh connection is settled by cache.Establish: a covering
//     ticket resumes it, otherwise a full handshake validates the chain
//     unless the memo has seen it, and under h3 a covering token skips
//     the Retry round trip. Warm state is keyed by the protocol's wire,
//     so h2 state never leaks into an h3 replay;
//   - race extras (ExtraDNS/ExtraTLS) are speculative and bypass every
//     cache, so they cost the same on every visit.
//
// ProtoH2 replays the recorded connection structure: an entry reusing
// a connection (!NewTLS, secure) counts as coalescing reuse. The other
// two protocols reinterpret it while keeping the DNS accounting
// identical, isolating the transport effect from resolution effects
// (LookupsNeeded is invariant across protocols):
//
//   - ProtoH1: no cross-host coalescing. A request reuses a connection
//     only when an earlier request in the same visit already connected
//     to the same hostname (keep-alive); every first contact with a
//     hostname pays a connection, whatever the recorded h2 coalescing
//     said.
//   - ProtoH3: the recorded coalescing structure holds (the SAN rules
//     authorizing h2 coalescing authorize h3 pooling equally), but every
//     fresh connection also settles address validation.
//
// A nil cache replays the pure cold visit: at ProtoH2 the returned
// DNSQueries and FullHandshakes then equal the page's measured §4.2
// counts exactly (p.DNSQueries() and p.TLSConnections()).
func ProtocolReplayCosts(p *har.Page, proto Protocol, c *cache.Cache) VisitCosts {
	vc := VisitCosts{Pages: 1}
	var connected map[string]bool
	if proto == ProtoH1 {
		connected = map[string]bool{}
	}
	wire := proto.Wire()
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.NewDNS {
			if _, negative, ok := c.LookupDNS(e.Host); ok {
				if negative {
					vc.DNSNegHits++
				} else {
					vc.DNSCacheHits++
				}
			} else {
				vc.DNSQueries++
				if len(e.DNSAnswer) > 0 {
					c.PutDNS(e.Host, e.DNSAnswer, c.DefaultTTL())
				}
			}
		} else {
			vc.DNSCoalesced++
		}
		if !e.Secure {
			continue
		}
		reused := !e.NewTLS
		if proto == ProtoH1 {
			// Keep-alive only: reuse requires a live same-host connection.
			reused = connected[e.Host]
			connected[e.Host] = true
		}
		if reused {
			vc.ConnsNeeded++
			vc.ReusedConns++
			continue
		}
		sans := e.CertSANs
		if len(sans) == 0 {
			sans = []string{e.Host}
		}
		vc.AddHandshake(c.Establish(e.Host, e.CertIssuer, sans, wire), proto)
	}
	// Races fire before any warm state could be consulted; under h3 the
	// speculative connections also pay address validation.
	vc.DNSQueries += p.ExtraDNS
	vc.ConnsNeeded += p.ExtraTLS
	vc.FullHandshakes += p.ExtraTLS
	vc.Validations += p.ExtraTLS
	if proto == ProtoH3 {
		vc.AddrValidations += p.ExtraTLS
	}
	return vc
}

// ProtocolReplaySequence replays a page visits times under one protocol
// against one fresh cache built from opts, advancing the cache clock by
// the configured revisit interval between visits. Element i of the
// result is what visit i+1 paid; visit 1 is the cold load. A zero
// visits count returns nil.
func ProtocolReplaySequence(p *har.Page, visits int, opts cache.Options, proto Protocol) []VisitCosts {
	if visits <= 0 {
		return nil
	}
	c := cache.New(opts)
	out := make([]VisitCosts, visits)
	for v := 0; v < visits; v++ {
		if v > 0 {
			c.Clock().AdvanceMs(c.Opts().RevisitIntervalMs)
		}
		out[v] = ProtocolReplayCosts(p, proto, c)
	}
	return out
}
