package quic

import (
	"math/rand"
	"testing"

	"respectorigin/internal/netsim"
)

func TestConnIDDeterministic(t *testing.T) {
	a := NewConnID(rand.New(rand.NewSource(7)))
	b := NewConnID(rand.New(rand.NewSource(7)))
	if a != b {
		t.Fatalf("same seed minted different conn IDs: %s vs %s", a, b)
	}
	c := NewConnID(rand.New(rand.NewSource(8)))
	if a == c {
		t.Fatalf("different seeds minted the same conn ID %s", a)
	}
	if len(a.String()) != 2*ConnIDLen {
		t.Fatalf("String() = %q, want %d hex chars", a, 2*ConnIDLen)
	}
}

func TestConnStreamMultiplexing(t *testing.T) {
	c := NewConn(rand.New(rand.NewSource(1)), "www.example.com", []string{"*.example.com"})
	var ids []uint64
	for i := 0; i < 4; i++ {
		s, err := c.OpenStream()
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		ids = append(ids, s.ID)
	}
	// Client-initiated bidirectional stream IDs: 0, 4, 8, 12 (§2.1).
	for i, id := range ids {
		if want := uint64(i * 4); id != want {
			t.Fatalf("stream %d got ID %d, want %d", i, id, want)
		}
	}
	if c.NumStreams() != 4 {
		t.Fatalf("NumStreams = %d, want 4", c.NumStreams())
	}
	if c.Stream(4) == nil || c.Stream(2) != nil {
		t.Fatalf("stream lookup: want ID 4 present, ID 2 absent")
	}
	c.Close()
	if _, err := c.OpenStream(); err != ErrConnClosed {
		t.Fatalf("OpenStream after Close: err = %v, want ErrConnClosed", err)
	}
}

func TestPathRTTs(t *testing.T) {
	cases := []struct {
		path    Path
		rtts    float64
		zeroRTT bool
	}{
		{Path{Resumed: true, TokenHit: true}, 0, true},
		{Path{Resumed: true, TokenHit: false}, 2, false},
		{Path{Resumed: false, TokenHit: true}, 1, false},
		{Path{Resumed: false, TokenHit: false}, 2, false},
	}
	for _, c := range cases {
		if got := c.path.RTTs(); got != c.rtts {
			t.Errorf("%+v: RTTs = %v, want %v", c.path, got, c.rtts)
		}
		if got := c.path.ZeroRTT(); got != c.zeroRTT {
			t.Errorf("%+v: ZeroRTT = %v, want %v", c.path, got, c.zeroRTT)
		}
	}
}

func TestHandshakeTimeStreamContract(t *testing.T) {
	// Every path consumes exactly one jitter draw: after pricing any
	// path, the next draw from an identically-seeded network matches.
	paths := []Path{
		{Resumed: true, TokenHit: true},
		{Resumed: true, TokenHit: false},
		{Resumed: false, TokenHit: true},
		{Resumed: false, TokenHit: false},
	}
	params := netsim.DefaultParams()
	var wantNext float64
	for i, p := range paths {
		n := netsim.New(params, 42)
		p.HandshakeTime(n, 3)
		next := n.Float64()
		if i == 0 {
			wantNext = next
			continue
		}
		if next != wantNext {
			t.Fatalf("path %+v consumed a different number of draws (next draw %v, want %v)",
				p, next, wantNext)
		}
	}

	// 0-RTT is free of round trips; the retry path pays two.
	noJitter := params
	noJitter.JitterMs = 0
	n := netsim.New(noJitter, 1)
	if d := (Path{Resumed: true, TokenHit: true}).HandshakeTime(n, 0); d != 0 {
		t.Fatalf("0-RTT handshake time = %v, want 0", d)
	}
	if d := (Path{}).HandshakeTime(n, 0); d != 2*noJitter.RTTMs+noJitter.CertVerifyMs {
		t.Fatalf("cold handshake time = %v, want %v", d, 2*noJitter.RTTMs+noJitter.CertVerifyMs)
	}
}

func TestDeliverHoLComparison(t *testing.T) {
	sizes := []int64{10_000, 50_000, 200_000}
	const bw = 6250.0

	// Without loss the transports are identical.
	q := DeliverNoHoL(sizes, bw, nil)
	h := DeliverTCPHoL(sizes, bw, nil)
	for i := range q {
		if q[i] != h[i] {
			t.Fatalf("no-loss completions differ at %d: quic %v, tcp %v", i, q[i], h[i])
		}
	}
	// Completions are ordered by size under fair sharing.
	if !(q[0] < q[1] && q[1] < q[2]) {
		t.Fatalf("fair-share completions not size-ordered: %v", q)
	}

	// One early loss on stream 2: QUIC stalls only stream 2, TCP
	// stalls every stream still in flight.
	loss := []LossEvent{{AtMs: 1, StallMs: 100, StreamIdx: 2}}
	q = DeliverNoHoL(sizes, bw, loss)
	h = DeliverTCPHoL(sizes, bw, loss)
	base := DeliverNoHoL(sizes, bw, nil)
	for i := 0; i < 2; i++ {
		if q[i] != base[i] {
			t.Errorf("quic: unrelated stream %d shifted by loss: %v -> %v", i, base[i], q[i])
		}
		if h[i] != base[i]+100 {
			t.Errorf("tcp: stream %d not stalled by HoL blocking: %v, want %v", i, h[i], base[i]+100)
		}
	}
	if q[2] != base[2]+100 || h[2] != base[2]+100 {
		t.Errorf("lost stream not stalled: quic %v, tcp %v, want %v", q[2], h[2], base[2]+100)
	}

	// A loss after a stream completed does not reach back in time.
	late := []LossEvent{{AtMs: base[2] + 1, StallMs: 50, StreamIdx: 0}}
	if got := DeliverNoHoL(sizes, bw, late); got[0] != base[0] {
		t.Errorf("loss after completion stalled stream 0: %v, want %v", got[0], base[0])
	}

	// Bandwidth off: zero completions, mirroring netsim.TransferTime.
	for _, v := range DeliverNoHoL(sizes, 0, nil) {
		if v != 0 {
			t.Fatalf("bandwidth-off completion %v, want 0", v)
		}
	}
}
