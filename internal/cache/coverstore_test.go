package cache

import (
	"math"
	"math/rand"
	"testing"

	"respectorigin/internal/certs"
)

// oracleStore is the linear-scan warm-state store the SAN index
// replaced: every redemption drops expired entries and matches host
// against each stored SAN list, oldest first. It keeps its own copy of
// the SAN lists and its own hand-written matcher, so the differential
// tests check coverStore's index and certs.SANsCover against an
// independent reference.
type oracleStore struct {
	lifetimeMs int64
	singleUse  bool
	entries    []oracleEntry

	issued, hits, misses, expired int64
}

type oracleEntry struct {
	sans      []string
	expiresMs int64
	proto     int
}

func (o *oracleStore) store(sans []string, proto int, nowMs int64) {
	if o.lifetimeMs <= 0 || len(sans) == 0 {
		return
	}
	o.issued++
	o.entries = append(o.entries, oracleEntry{append([]string(nil), sans...), nowMs + o.lifetimeMs, proto})
}

func (o *oracleStore) redeem(host string, proto int, nowMs int64) bool {
	if o.lifetimeMs <= 0 {
		return false
	}
	kept := o.entries[:0]
	hit := false
	for _, en := range o.entries {
		if nowMs >= en.expiresMs {
			o.expired++
			continue
		}
		if !hit && en.proto == proto && oracleCovers(en.sans, host) {
			hit = true
			if o.singleUse {
				continue // consumed
			}
		}
		kept = append(kept, en)
	}
	o.entries = kept
	if hit {
		o.hits++
	} else {
		o.misses++
	}
	return hit
}

// oracleCovers is the single-label wildcard rule as the stores matched
// it before the index: exact, or "*.suffix" over one non-empty label.
func oracleCovers(sans []string, host string) bool {
	for _, san := range sans {
		if san == host {
			return true
		}
		if len(san) > 2 && san[0] == '*' && san[1] == '.' {
			suffix := san[1:]
			if len(host) > len(suffix) && host[len(host)-len(suffix):] == suffix {
				label := host[:len(host)-len(suffix)]
				dot := false
				for i := 0; i < len(label); i++ {
					dot = dot || label[i] == '.'
				}
				if label != "" && !dot {
					return true
				}
			}
		}
	}
	return false
}

// oracleSANs and oracleHosts are the name pools the op stream draws
// from: wildcard edge cases, multi-label hosts under a wildcard, and
// names that only an exact match can cover.
var (
	oracleSANs = []string{
		"x.com", "*.x.com", "a.x.com", "b.x.com", "*.a.x.com",
		"*.", "*", "*.*.x.com", "q.*.x.com", ".x.com", "",
		"y.org", "*.y.org", "a.*.x.com", "*.com", "com",
	}
	oracleHosts = []string{
		"x.com", "a.x.com", "b.x.com", "c.a.x.com", "a.b.x.com",
		".x.com", "", "*", "*.", "*.x.com", "q.a.x.com", "a.*.x.com",
		"q.*.x.com", "y.org", "w.y.org", "a.", "com", "x",
	}
)

// runOracleOps decodes ops into a store/redeem/clock-move sequence,
// applies it to a coverStore and an oracleStore with the same settings,
// and fails on the first disagreement in a redemption, Len or the
// issued/hits/misses/expired counters. extra names join both pools.
func runOracleOps(t *testing.T, ops []byte, extra ...string) {
	if len(ops) == 0 {
		return
	}
	sanPool := append(append([]string(nil), oracleSANs...), extra...)
	hostPool := append(append([]string(nil), oracleHosts...), extra...)
	lifetime := int64(ops[0]>>1)%40 + 1
	if ops[0] == 0xff {
		lifetime = 0 // disabled store
	}
	singleUse := ops[0]&1 == 1
	got := newCoverStore(lifetime, singleUse)
	want := &oracleStore{lifetimeMs: lifetime, singleUse: singleUse}
	var now int64
	for i := 1; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		proto := int(op>>3)%3 + 1
		switch op % 8 {
		case 0, 1, 2: // store a SAN list of up to four names
			var sans []string
			for n := arg % 5; n > 0; n-- {
				sans = append(sans, sanPool[(arg*7+n*int(op))%len(sanPool)])
			}
			got.store(sans, proto, now)
			want.store(sans, proto, now)
			host := hostPool[int(op)%len(hostPool)]
			if g, w := certs.SANsCover(sans, host), oracleCovers(sans, host); g != w {
				t.Fatalf("op %d: certs.SANsCover(%q, %q) = %v, oracle %v", i, sans, host, g, w)
			}
		case 3, 4, 5: // redeem
			host := hostPool[arg%len(hostPool)]
			g, w := got.redeem(host, proto, now), want.redeem(host, proto, now)
			if g != w {
				t.Fatalf("op %d: redeem(%q, h%d, now=%d) = %v, oracle %v", i, host, proto, now, g, w)
			}
		case 6: // clock forward
			now += int64(arg % 16)
		case 7: // clock backward, or a jump to the edge of int64
			if arg == 0xff {
				now = math.MaxInt64 - int64(op)
			} else {
				now -= int64(arg % 16)
			}
		}
		if g, w := got.len(), len(want.entries); g != w {
			t.Fatalf("op %d: Len() = %d, oracle %d", i, g, w)
		}
		gi, gh, gm, ge := got.counts()
		if gi != want.issued || gh != want.hits || gm != want.misses || ge != want.expired {
			t.Fatalf("op %d: issued/hits/misses/expired = %d/%d/%d/%d, oracle %d/%d/%d/%d",
				i, gi, gh, gm, ge, want.issued, want.hits, want.misses, want.expired)
		}
	}
}

// TestCoverStoreMatchesOracle drives long random op streams — big
// enough to cross the compaction threshold many times — through the
// index and the linear-scan oracle.
func TestCoverStoreMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 1+2*(200+rng.Intn(3000)))
		rng.Read(ops)
		runOracleOps(t, ops)
	}
}

func FuzzCoverStoreOracle(f *testing.F) {
	f.Add([]byte{0x10, 0x00, 0x44, 0x03, 0x01}, "a.b.x.com")
	f.Add([]byte{0x11, 0x08, 0x13, 0x0b, 0x01, 0x06, 0x20, 0x0b, 0x01}, "*.b.x.com")
	f.Add([]byte{0x03, 0x00, 0x04, 0x07, 0x05, 0x03, 0x02, 0x07, 0xff, 0x03, 0x02}, "")
	f.Add([]byte{0xff, 0x00, 0x01, 0x03, 0x01}, "x.com")
	f.Fuzz(func(t *testing.T, ops []byte, name string) {
		runOracleOps(t, ops, name)
	})
}
