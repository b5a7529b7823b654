package cache

// TicketStore models TLS session-ticket resumption keyed by certificate
// coverage: a ticket is redeemable for any hostname the issuing
// connection's certificate covers, enabling resumption across hostnames
// (arXiv:1902.02531) exactly as coalescing reuses a connection across
// hostnames. Tickets expire after the configured lifetime and can be
// single-use; redemption picks the oldest covering ticket, so the order
// of issuance fully determines which ticket serves a host and two runs
// with the same visit schedule redeem identically. Redemption is an
// index lookup, not a scan (see coverStore).
type TicketStore struct {
	cover coverStore
}

// Wire protocol keys for protocol-versioned warm state. A TLS session
// ticket (or an address-validation token) carries the protocol version
// of the session that minted it, and redemption requires an exact
// match: an h2 ticket must never produce a 0-RTT h3 resumption, and
// vice versa — the stores are logically separate per protocol even
// though one client holds them all.
const (
	ProtoWireH1 = 1
	ProtoWireH2 = 2
	ProtoWireH3 = 3
)

func newTicketStore(lifetimeMs int64, singleUse bool) *TicketStore {
	return &TicketStore{cover: newCoverStore(lifetimeMs, singleUse)}
}

// Enabled reports whether tickets are issued at all (a zero lifetime
// disables resumption entirely).
func (t *TicketStore) Enabled() bool { return t.cover.enabled() }

// StoreProto issues a session ticket for a connection whose certificate
// carries the given SANs, keyed by the wire protocol that minted it.
// Full and resumed handshakes both issue fresh tickets (the TLS 1.3
// NewSessionTicket flow).
func (t *TicketStore) StoreProto(sans []string, proto int, nowMs int64) {
	t.cover.store(sans, proto, nowMs)
}

// RedeemProto consumes (or, for reusable tickets, touches) the oldest
// live ticket minted under the same wire protocol whose certificate
// coverage includes host, reporting whether a resumption handshake is
// possible. Tickets minted under a different protocol never match —
// the TLS session state of an h2 connection cannot resume an h3
// session. Every expired ticket is dropped first; a ticket expiring
// exactly at nowMs is dead.
func (t *TicketStore) RedeemProto(host string, proto int, nowMs int64) bool {
	return t.cover.redeem(host, proto, nowMs)
}

// Len reports the live ticket count (expired tickets may linger until
// the next redemption sweeps them).
func (t *TicketStore) Len() int { return t.cover.len() }

func (t *TicketStore) addStats(s *Stats) {
	issued, hits, misses, expired := t.cover.counts()
	s.TicketsIssued += issued
	s.TicketHits += hits
	s.TicketMisses += misses
	s.TicketsExpired += expired
}
