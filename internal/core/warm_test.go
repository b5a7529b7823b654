package core

import (
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/netsim"
)

// setupLedger is a consistent ledger with every handshake path
// populated: under h3, 3 connections are 0-RTT, 2 resumed without a
// token, 4 full with a token and 5 full without one.
func setupLedger() VisitCosts {
	var v VisitCosts
	add := func(n int, h cache.Handshake) {
		for i := 0; i < n; i++ {
			v.AddHandshake(h, ProtoH3)
		}
	}
	add(3, cache.Handshake{Resumed: true, TokenHit: true})
	add(2, cache.Handshake{Resumed: true})
	add(4, cache.Handshake{TokenHit: true, MemoHit: true})
	add(5, cache.Handshake{})
	v.ConnsNeeded += 6
	v.ReusedConns += 6
	return v
}

func TestAddHandshakeKeepsLedgerConsistent(t *testing.T) {
	v := setupLedger()
	if !v.Consistent() {
		t.Fatalf("inconsistent ledger %+v", v)
	}
	want := VisitCosts{
		ConnsNeeded: 20, ReusedConns: 6, ResumedTLS: 5, FullHandshakes: 9,
		Validations: 5, CertMemoHits: 4, ZeroRTT: 3, AddrTokenHits: 7, AddrValidations: 7,
	}
	if v != want {
		t.Fatalf("ledger %+v, want %+v", v, want)
	}
	// h1/h2 connections never carry token state, whatever the handshake.
	var h2 VisitCosts
	h2.AddHandshake(cache.Handshake{Resumed: true, TokenHit: true}, ProtoH2)
	if h2.AddrTokenHits != 0 || h2.AddrValidations != 0 || h2.ZeroRTT != 0 || h2.ResumedTLS != 1 {
		t.Fatalf("h2 handshake folded as %+v", h2)
	}
}

// Each handshake path is priced by its round trips plus verification
// for full handshakes: TCP+TLS for h1/h2, the quic.Path table for h3.
func TestSetupMsPerPath(t *testing.T) {
	p := netsim.Params{RTTMs: 10, TLSRoundTrips: 2, CertVerifyMs: 1}
	cases := []struct {
		name  string
		v     VisitCosts
		proto Protocol
		want  float64
	}{
		{"h2 resumed", VisitCosts{ResumedTLS: 1}, ProtoH2, 30},
		{"h1 full", VisitCosts{FullHandshakes: 1}, ProtoH1, 31},
		{"h3 0-RTT", VisitCosts{ResumedTLS: 1, ZeroRTT: 1, AddrTokenHits: 1}, ProtoH3, 0},
		{"h3 resumed, Retry", VisitCosts{ResumedTLS: 1, AddrValidations: 1}, ProtoH3, 20},
		{"h3 full, token", VisitCosts{FullHandshakes: 1, AddrTokenHits: 1}, ProtoH3, 11},
		{"h3 full, Retry", VisitCosts{FullHandshakes: 1, AddrValidations: 1}, ProtoH3, 21},
		{"reuse is free", VisitCosts{ConnsNeeded: 4, ReusedConns: 4}, ProtoH3, 0},
	}
	for _, c := range cases {
		if got := c.v.SetupMs(c.proto, p); got != c.want {
			t.Errorf("%s: SetupMs = %v, want %v", c.name, got, c.want)
		}
	}
}

// The pricer is monotone in the network: a longer round trip or a
// lossier path never makes setup cheaper, and any loss at all makes it
// strictly dearer (loss inflates every round trip through CostScale).
func TestSetupMsMonotoneInRTTAndLoss(t *testing.T) {
	v := setupLedger()
	for _, proto := range Protocols {
		prev := -1.0
		for _, rtt := range []float64{0, 5, 20, 90, 300, 1200} {
			p := netsim.DefaultParams()
			p.RTTMs = rtt
			got := v.SetupMs(proto, p)
			if got < prev {
				t.Errorf("%s: SetupMs fell from %v to %v as RTT rose to %v ms", proto, prev, got, rtt)
			}
			prev = got
		}
		base := v.SetupMs(proto, netsim.DefaultParams())
		prev = base
		for _, loss := range []float64{0.05, 0.2} {
			p := netsim.DefaultParams()
			p.LossRate = loss
			got := v.SetupMs(proto, p)
			if got < prev {
				t.Errorf("%s: SetupMs fell from %v to %v as loss rose to %v", proto, prev, got, loss)
			}
			if got <= base {
				t.Errorf("%s: SetupMs at loss %v is %v, not above the lossless %v", proto, loss, got, base)
			}
			prev = got
		}
	}
}
