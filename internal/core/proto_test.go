package core

import (
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

func protoTestPages(t *testing.T) []*har.Page {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = 150
	cfg.Seed = 5
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Pages
}

// Every h3 visit ledger must hold the exact address-validation
// identity (every fresh connection is a token hit or a validation),
// and h1/h2 ledgers must carry no h3 state at all.
func TestProtocolReplayLedgerIdentities(t *testing.T) {
	opts := cache.Options{}
	pages := protoTestPages(t)
	var warmZeroRTT int
	for _, p := range pages {
		for proto, seq := range map[Protocol][]VisitCosts{
			ProtoH1: ProtocolReplaySequence(p, 3, opts, ProtoH1),
			ProtoH2: ProtocolReplaySequence(p, 3, opts, ProtoH2),
			ProtoH3: ProtocolReplaySequence(p, 3, opts, ProtoH3),
		} {
			for v, vc := range seq {
				if !vc.Consistent() {
					t.Fatalf("page %s %s visit %d: inconsistent ledger %+v", p.Host, proto, v+1, vc)
				}
				if proto != ProtoH3 {
					if vc.ZeroRTT != 0 || vc.AddrTokenHits != 0 || vc.AddrValidations != 0 {
						t.Fatalf("page %s %s visit %d: non-h3 ledger carries h3 state %+v", p.Host, proto, v+1, vc)
					}
					continue
				}
				fresh := vc.ResumedTLS + vc.FullHandshakes - p.ExtraTLS
				if got := vc.AddrTokenHits + vc.AddrValidations - p.ExtraTLS; fresh > 0 && got != fresh {
					t.Fatalf("page %s h3 visit %d: token accounting %d != fresh conns %d (%+v)",
						p.Host, v+1, got, fresh, vc)
				}
				if v > 0 {
					warmZeroRTT += vc.ZeroRTT
				}
			}
		}
	}
	if warmZeroRTT == 0 {
		t.Fatal("no warm h3 visit achieved 0-RTT across the corpus — tokens or tickets are not redeeming")
	}
}
