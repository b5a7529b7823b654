package core

import (
	"respectorigin/internal/cache"
	"respectorigin/internal/har"
)

// VisitCosts is the per-visit cost ledger of a warm/cold page-load
// sequence: what one visit (or a sum of visits) actually paid in DNS
// queries, TLS handshakes and certificate validations, with every
// avoided unit attributed to exactly one cause — coalescing reuse,
// DNS cache, ticket resumption, or the cert memo — at the moment it
// was avoided. That discipline makes the savings decomposition exact
// by construction:
//
//	ConnsNeeded    = ReusedConns + ResumedTLS + FullHandshakes
//	FullHandshakes = Validations + CertMemoHits
//	lookups needed = DNSQueries + DNSCacheHits + DNSNegHits + DNSCoalesced
//
// so differences between two visits of the same page decompose into
// per-cause differences with no remainder.
type VisitCosts struct {
	Pages int // page loads folded into this ledger

	// DNS lookups by how they were satisfied.
	DNSQueries   int // wire queries actually issued
	DNSCacheHits int // served from the positive DNS cache
	DNSNegHits   int // answered by the negative DNS cache
	DNSCoalesced int // skipped entirely (request rode existing state)

	// TLS connections by how they were satisfied.
	ConnsNeeded    int // secure requests that needed a connection
	ReusedConns    int // satisfied by coalescing/pool reuse
	ResumedTLS     int // established via session-ticket resumption
	FullHandshakes int // full TLS handshakes performed

	// Chain validations within the full handshakes.
	Validations  int // validations actually performed
	CertMemoHits int // skipped via the validated-chain memo

	// h3-only decomposition, all zero for h1/h2 replays. Every fresh h3
	// connection either redeems an address-validation token or performs
	// address validation (the Retry round trip), so for an h3 ledger
	//
	//	AddrTokenHits + AddrValidations = ResumedTLS + FullHandshakes
	//
	// and ZeroRTT counts the resumed connections that also hit a token.
	ZeroRTT         int // 0-RTT handshakes (ticket + token both redeemed)
	AddrTokenHits   int // address-validation tokens redeemed
	AddrValidations int // address validations performed (no token cover)
}

// Add folds o into v field-wise. Addition is associative and
// commutative, so per-page ledgers merge identically for any shard
// order or worker count.
func (v *VisitCosts) Add(o VisitCosts) {
	v.Pages += o.Pages
	v.DNSQueries += o.DNSQueries
	v.DNSCacheHits += o.DNSCacheHits
	v.DNSNegHits += o.DNSNegHits
	v.DNSCoalesced += o.DNSCoalesced
	v.ConnsNeeded += o.ConnsNeeded
	v.ReusedConns += o.ReusedConns
	v.ResumedTLS += o.ResumedTLS
	v.FullHandshakes += o.FullHandshakes
	v.Validations += o.Validations
	v.CertMemoHits += o.CertMemoHits
	v.ZeroRTT += o.ZeroRTT
	v.AddrTokenHits += o.AddrTokenHits
	v.AddrValidations += o.AddrValidations
}

// LookupsNeeded is the visit's total DNS demand, however satisfied.
// It is constant across revisits of the same page, which is what makes
// per-cause DNS savings exact.
func (v VisitCosts) LookupsNeeded() int {
	return v.DNSQueries + v.DNSCacheHits + v.DNSNegHits + v.DNSCoalesced
}

// Consistent reports whether the ledger's internal identities hold;
// a false return means some unit was double-counted or dropped and the
// savings decomposition cannot be exact.
func (v VisitCosts) Consistent() bool {
	if v.ConnsNeeded != v.ReusedConns+v.ResumedTLS+v.FullHandshakes ||
		v.FullHandshakes != v.Validations+v.CertMemoHits {
		return false
	}
	// The h3 address-validation identity is "zero or exact": h1/h2
	// ledgers carry no token state at all, h3 ledgers must account every
	// fresh connection as either a token hit or a validation.
	addr := v.AddrTokenHits + v.AddrValidations
	return addr == 0 || addr == v.ResumedTLS+v.FullHandshakes
}

// WarmReplayCosts replays one recorded page load against a warm-path
// cache and returns what the visit paid. The page itself is the visit
// structure — which requests issued fresh DNS queries and handshakes
// (NewDNS/NewTLS) versus riding existing state — and the cache decides,
// per fresh setup, whether warm state makes it cheaper:
//
//   - a NewDNS entry consults the DNS cache before "querying"; misses
//     populate it with the entry's answer set under the cache's default
//     TTL (HAR records carry no TTLs);
//   - a NewTLS entry redeems a session ticket when one covers the host
//     (skipping the full handshake and validation entirely), otherwise
//     performs a full handshake whose chain validation the memo may
//     skip; either way the handshake's certificate mints a ticket;
//   - entries reusing connections (!NewTLS, secure) count as coalescing
//     reuse; race extras (ExtraDNS/ExtraTLS) are speculative and bypass
//     every cache, so they cost the same on every visit.
//
// A nil cache replays the pure cold visit: the returned DNSQueries and
// FullHandshakes then equal the page's measured §4.2 counts exactly
// (p.DNSQueries() and p.TLSConnections()).
func WarmReplayCosts(p *har.Page, c *cache.Cache) VisitCosts {
	vc := VisitCosts{Pages: 1}
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
		if !e.NewTLS {
			vc.ConnsNeeded++
			vc.ReusedConns++
			continue
		}
		vc.ConnsNeeded++
		sans := e.CertSANs
		if len(sans) == 0 {
			sans = []string{e.Host}
		}
		if c.RedeemTicketProto(e.Host, cache.ProtoWireH2) {
			vc.ResumedTLS++
		} else {
			vc.FullHandshakes++
			if c.ValidateChain(e.CertIssuer, sans) {
				vc.CertMemoHits++
			} else {
				vc.Validations++
			}
		}
		c.StoreTicketProto(sans, cache.ProtoWireH2)
	}
	// Happy-eyeballs and speculative-connection races (§4.2) fire
	// before any answer or ticket could be consulted.
	vc.DNSQueries += p.ExtraDNS
	vc.ConnsNeeded += p.ExtraTLS
	vc.FullHandshakes += p.ExtraTLS
	vc.Validations += p.ExtraTLS
	return vc
}

// WarmReplaySequence replays a page visits times against one fresh
// cache built from opts, advancing the cache clock by the configured
// revisit interval between visits. Element i of the result is what
// visit i+1 paid; visit 1 is the cold load. A zero visits count
// returns nil.
func WarmReplaySequence(p *har.Page, visits int, opts cache.Options) []VisitCosts {
	if visits <= 0 {
		return nil
	}
	c := cache.New(opts)
	out := make([]VisitCosts, visits)
	for v := 0; v < visits; v++ {
		if v > 0 {
			c.Clock().AdvanceMs(c.Opts().RevisitIntervalMs)
		}
		out[v] = WarmReplayCosts(p, c)
	}
	return out
}
