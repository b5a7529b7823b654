package quic

import "respectorigin/internal/netsim"

// Path describes how one QUIC connection establishment proceeds, as
// determined by the client's warm state (see cache.Establish):
//
//   - Resumed: a protocol-keyed TLS session ticket (PSK) covered the
//     host, so the cryptographic handshake is abbreviated and no
//     certificate chain is presented or validated.
//   - TokenHit: a live address-validation token covered the host, so
//     the server skips its Retry and the validation round trip is free.
//
// The four combinations price out as:
//
//	resumed + token  → 0-RTT: application data rides the first flight
//	resumed, no token → 1 RTT handshake + 1 RTT Retry
//	full + token      → 1 RTT handshake
//	full, no token    → 1 RTT handshake + 1 RTT Retry
//
// A cold client (nil cache) takes the full-no-token path: 2 RTTs,
// still cheaper than the default TCP+TLS1.2 profile's 3.
type Path struct {
	Resumed  bool
	TokenHit bool
}

// ZeroRTT reports whether the establishment sends application data in
// the first flight: it needs both a PSK to encrypt under and a token
// so the server accepts the data before validating the path.
func (p Path) ZeroRTT() bool { return p.Resumed && p.TokenHit }

// RTTs returns the round trips the establishment costs before
// application data flows.
func (p Path) RTTs() float64 {
	rtts := 1.0
	if p.ZeroRTT() {
		rtts = 0
	}
	if !p.TokenHit {
		rtts++ // address validation via Retry
	}
	return rtts
}

// HandshakeTime prices the establishment on the network model: the
// path's round trips, plus chain validation for full handshakes.
// Exactly one jitter draw regardless of path (the netsim stream
// contract), so warm and cold h3 runs stay comparable draw for draw.
func (p Path) HandshakeTime(n *netsim.Network, sanCount int) float64 {
	return n.QUICHandshakeTime(p.RTTs(), !p.Resumed, sanCount)
}
