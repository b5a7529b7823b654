package bench

import (
	"fmt"
	"testing"

	"respectorigin/internal/cache"
)

// cacheTickets is the ticket count a median default-matrix cell holds
// when it ends: the cell's clock never advances, so every reusable
// ticket it minted is still live.
const cacheTickets = 1242

// ticketSANs is the i-th synthetic certificate: a site's apex, its
// wildcard, and a shared third-party name, over 300 distinct sites.
func ticketSANs(i int) []string {
	site := fmt.Sprintf("site%d.example", i%300)
	return []string{"www." + site, "*." + site, "cdn.shared.example"}
}

// ticketCache returns a cache whose ticket store holds cacheTickets
// reusable h2 tickets.
func ticketCache() *cache.Cache {
	c := cache.New(cache.Options{})
	for i := 0; i < cacheTickets; i++ {
		c.StoreTicketProto(ticketSANs(i), cache.ProtoWireH2)
	}
	return c
}

// cacheSuite prices the warm-state ticket store at the size a matrix
// cell reaches. Ungated: it tracks the redemption layer in the
// trajectory rather than holding a hot-path budget.
func cacheSuite() []Benchmark {
	var out []Benchmark
	for _, r := range []struct{ name, host string }{
		{"hit", "www.site7.example"},
		{"wildcard", "img.site7.example"},
		{"miss", "www.absent.example"},
	} {
		host := r.host
		out = append(out, Benchmark{
			Suite: "cache", Name: fmt.Sprintf("TicketRedeem/tickets=%d/%s", cacheTickets, r.name),
			F: func(b *testing.B) {
				c := ticketCache()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.RedeemTicketProto(host, cache.ProtoWireH2)
				}
			},
		})
	}
	// TicketStore is one issuance into a store filling from empty to
	// cacheTickets; a fresh cache replaces it every cacheTickets ops.
	out = append(out, Benchmark{
		Suite: "cache", Name: "TicketStore",
		F: func(b *testing.B) {
			sans := make([][]string, cacheTickets)
			for i := range sans {
				sans[i] = ticketSANs(i)
			}
			var c *cache.Cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%cacheTickets == 0 {
					c = cache.New(cache.Options{})
				}
				c.StoreTicketProto(sans[i%cacheTickets], cache.ProtoWireH2)
			}
		},
	})
	return out
}
