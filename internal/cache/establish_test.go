package cache

import (
	"fmt"
	"testing"
)

var wires = []int{ProtoWireH1, ProtoWireH2, ProtoWireH3}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Establish settles a fresh connection from the warm state present
// under its own wire only: every combination of ticket, memo and token
// state, with tickets and tokens minted under every other wire planted
// as decoys, yields exactly the handshake the present state allows and
// moves exactly the counters that settlement touches.
func TestEstablish(t *testing.T) {
	sans := []string{"www.example.com", "*.example.com"}
	for _, wire := range wires {
		for _, ticket := range []bool{false, true} {
			for _, memo := range []bool{false, true} {
				for _, token := range []bool{false, true} {
					name := fmt.Sprintf("wire=%d/ticket=%v/memo=%v/token=%v", wire, ticket, memo, token)
					t.Run(name, func(t *testing.T) {
						c := New(Options{})
						now := c.Clock().NowMs()
						for _, other := range wires {
							if other != wire {
								c.Tickets.StoreProto(sans, other, now)
								c.Tokens.Store(sans, other, now)
							}
						}
						if ticket {
							c.Tickets.StoreProto(sans, wire, now)
						}
						if token {
							c.Tokens.Store(sans, wire, now)
						}
						if memo {
							c.Chains.Validate(ChainHash("CA", sans))
						}
						before := c.Stats()

						// A sibling host the wildcard SAN covers: resumption
						// and address validation work across hostnames.
						h := c.Establish("static.example.com", "CA", sans, wire)
						h3 := wire == ProtoWireH3
						want := Handshake{Resumed: ticket, MemoHit: !ticket && memo, TokenHit: h3 && token}
						if h != want {
							t.Fatalf("handshake %+v, want %+v", h, want)
						}
						if h.ZeroRTT() != (h3 && ticket && token) {
							t.Fatalf("ZeroRTT = %v for %+v", h.ZeroRTT(), h)
						}

						after := c.Stats()
						got := [...]int64{
							after.TicketHits - before.TicketHits,
							after.TicketMisses - before.TicketMisses,
							after.TicketsIssued - before.TicketsIssued,
							after.ChainHits - before.ChainHits,
							after.ChainMisses - before.ChainMisses,
							after.TokenHits - before.TokenHits,
							after.TokenMisses - before.TokenMisses,
							after.TokensIssued - before.TokensIssued,
						}
						wantCounts := [...]int64{
							b2i(ticket), b2i(!ticket), 1, // one redemption, one mint
							b2i(!ticket && memo), b2i(!ticket && !memo), // memo only on a full handshake
							b2i(h3 && token), b2i(h3 && !token), b2i(h3), // tokens only under h3
						}
						if got != wantCounts {
							t.Fatalf("counter deltas (ticket hit/miss/issued, chain hit/miss, token hit/miss/issued) = %v, want %v",
								got, wantCounts)
						}

						// The handshake minted fresh state for its coverage:
						// the next connection under the same wire resumes,
						// and under h3 it is 0-RTT.
						again := c.Establish("www.example.com", "CA", sans, wire)
						if !again.Resumed || again.MemoHit || again.TokenHit != h3 {
							t.Fatalf("revisit handshake %+v, want resumed (token %v)", again, h3)
						}
					})
				}
			}
		}
	}
}

// The h3 warm path across hostnames: the cold handshake mints a ticket
// and a token, a covered sibling then connects 0-RTT, and a host
// outside every certificate's coverage gets nothing.
func TestEstablishWarmPath(t *testing.T) {
	c := New(Options{})
	sans := []string{"www.example.com", "cdn.example.com"}
	if h := c.Establish("www.example.com", "CA", sans, ProtoWireH3); h.Resumed || h.TokenHit {
		t.Fatalf("cold establish: %+v, want neither resumed nor token", h)
	}
	if h := c.Establish("cdn.example.com", "CA", sans, ProtoWireH3); !h.ZeroRTT() {
		t.Fatalf("covered sibling: %+v, want 0-RTT via shared SAN coverage", h)
	}
	if h := c.Establish("other.example.org", "CA", []string{"other.example.org"}, ProtoWireH3); h.Resumed || h.TokenHit {
		t.Fatalf("uncovered host: %+v, want neither resumed nor token", h)
	}
}

// A nil cache is the cold path under every wire: nothing resumes,
// nothing is memoized, no token covers the host.
func TestEstablishNilCacheIsCold(t *testing.T) {
	var c *Cache
	for _, wire := range wires {
		if h := c.Establish("www.example.com", "CA", []string{"www.example.com"}, wire); h != (Handshake{}) {
			t.Fatalf("wire %d: nil-cache establish = %+v, want the zero Handshake", wire, h)
		}
	}
}
