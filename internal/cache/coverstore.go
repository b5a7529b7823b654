package cache

import (
	"math"
	"strings"
	"sync"

	"respectorigin/internal/certs"
)

// coverStore is the warm state behind TicketStore and TokenStore:
// entries minted under a wire protocol for a certificate's SAN list and
// redeemable by any hostname that certificate covers.
//
// Each entry is indexed under (proto, SAN) for every SAN and under
// (proto, parent) for every "*.parent" wildcard SAN, so a redemption
// probes two keys — host itself and host's wildcard parent — instead of
// matching every stored SAN list. Entries live in issuance order (an
// entry's index is its age) and every key lists its entries oldest
// first through one shared node arena, so the oldest covering entry is
// the first live node of either list.
//
// A store starts small: until it holds smallLinks links it keeps them
// in one issuance-ordered slice and scans it, which for the handful of
// tickets a short-lived client mints is cheaper than a map; the first
// link past that builds the index.
//
// Consumed and expired entries are marked gone and unlinked lazily as
// lookups reach them; the store compacts once gone entries outnumber
// live ones. Expiry uses a min-expiry watermark: while entries are
// issued with non-decreasing deadlines (a clock that never runs
// backwards) a sweep stops at the first live deadline, otherwise it
// walks the whole store, and either way it only runs once the clock
// reaches the earliest deadline.
type coverStore struct {
	mu         sync.Mutex
	lifetimeMs int64 // ≤ 0 disables the store
	singleUse  bool

	entries []coverEntry // issuance order
	swept   int          // entries[:swept] are all gone
	small   []coverLink  // links in issuance order until the index is built
	index   map[coverKey]coverList
	nodes   []coverNode // arena of index-list links
	live    int         // entries neither consumed nor swept
	minExp  int64       // no entry expires before this instant
	ordered bool        // entries' deadlines are non-decreasing

	issued, hits, misses, expiredN int64
}

type coverEntry struct {
	expiresMs int64
	gone      bool // consumed or swept
}

// coverKey is one index key. wild marks a wildcard parent, so the SAN
// "x.com" (which covers only x.com) and the SAN "*.x.com" (filed under
// x.com, covering one label below it) never share a list.
type coverKey struct {
	name  string
	proto int32
	wild  bool
}

type coverLink struct {
	key   coverKey
	entry int32
}

type coverList struct{ head, tail int32 } // node indices

type coverNode struct{ entry, next int32 } // next < 0 ends the list

// smallLinks is the link count up to which a store scans its links
// instead of indexing them. compactMin is the gone-entry count below
// which the store never compacts; it exceeds smallLinks (every entry
// has a link), so only indexed stores compact.
const (
	smallLinks = 16
	compactMin = 64
)

func newCoverStore(lifetimeMs int64, singleUse bool) coverStore {
	return coverStore{lifetimeMs: lifetimeMs, singleUse: singleUse, minExp: math.MaxInt64, ordered: true}
}

func (s *coverStore) enabled() bool { return s.lifetimeMs > 0 }

// store mints an entry covering sans under proto. An empty SAN list or
// a disabled store mints nothing.
func (s *coverStore) store(sans []string, proto int, nowMs int64) {
	if !s.enabled() || len(sans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil { // sized for a short-lived client's few tickets
		s.entries = make([]coverEntry, 0, 4)
		s.small = make([]coverLink, 0, 8)
	}
	s.issued++
	exp := nowMs + s.lifetimeMs
	if n := len(s.entries); n > 0 && exp < s.entries[n-1].expiresMs {
		s.ordered = false
	}
	s.minExp = min(s.minExp, exp)
	e := int32(len(s.entries))
	s.entries = append(s.entries, coverEntry{expiresMs: exp})
	s.live++
	for _, san := range sans {
		s.link(coverKey{name: san, proto: int32(proto)}, e)
		if strings.HasPrefix(san, "*.") {
			if parent, ok := certs.WildcardParent(san); ok {
				s.link(coverKey{name: parent, proto: int32(proto), wild: true}, e)
			}
		}
	}
}

// link appends entry e to k's list, once even when a SAN list repeats
// a name (e is always the newest entry, so a repeat is the list's tail).
func (s *coverStore) link(k coverKey, e int32) {
	if s.index == nil {
		if len(s.small) < smallLinks {
			s.small = append(s.small, coverLink{k, e})
			return
		}
		s.index = make(map[coverKey]coverList)
		small := s.small
		s.small = nil
		for _, l := range small {
			s.link(l.key, l.entry)
		}
	}
	l, ok := s.index[k]
	if ok && s.nodes[l.tail].entry == e {
		return
	}
	n := int32(len(s.nodes))
	s.nodes = append(s.nodes, coverNode{entry: e, next: -1})
	if ok {
		s.nodes[l.tail].next = n
		l.tail = n
	} else {
		l = coverList{head: n, tail: n}
	}
	s.index[k] = l
}

// redeem drops every entry expired at nowMs (an entry expiring exactly
// at nowMs is dead), then reports whether a live entry minted under
// proto covers host, consuming the oldest such entry when the store is
// single-use.
func (s *coverStore) redeem(host string, proto int, nowMs int64) bool {
	if !s.enabled() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweep(nowMs)
	best := s.find(host, proto)
	if best < 0 {
		s.misses++
		return false
	}
	s.hits++
	if s.singleUse {
		s.entries[best].gone = true
		s.live--
		s.maybeCompact()
	}
	return true
}

// sweep marks every entry with a deadline at or before nowMs gone and
// counts it expired, then moves the watermark to the earliest deadline
// left.
func (s *coverStore) sweep(nowMs int64) {
	if nowMs < s.minExp {
		return
	}
	s.minExp = math.MaxInt64
	for i := s.swept; i < len(s.entries); i++ {
		en := &s.entries[i]
		if en.expiresMs > nowMs {
			s.minExp = min(s.minExp, en.expiresMs)
			if s.ordered {
				break // every later deadline is at least this one
			}
			continue
		}
		if !en.gone {
			en.gone = true
			s.live--
			s.expiredN++
		}
	}
	for s.swept < len(s.entries) && s.entries[s.swept].gone {
		s.swept++
	}
	s.maybeCompact()
}

// find returns the oldest live entry minted under proto that covers
// host, or -1.
func (s *coverStore) find(host string, proto int) int32 {
	exact := coverKey{name: host, proto: int32(proto)}
	parent, wild := certs.WildcardParent(host)
	under := coverKey{name: parent, proto: int32(proto), wild: true}
	if s.index == nil {
		for _, l := range s.small {
			if (l.key == exact || wild && l.key == under) && !s.entries[l.entry].gone {
				return l.entry
			}
		}
		return -1
	}
	best := s.oldest(exact)
	if wild {
		if e := s.oldest(under); e >= 0 && (best < 0 || e < best) {
			best = e
		}
	}
	return best
}

// oldest returns the oldest live entry on k's list, or -1, unlinking
// the gone entries it passes over.
func (s *coverStore) oldest(k coverKey) int32 {
	l, ok := s.index[k]
	if !ok {
		return -1
	}
	n := l.head
	for n >= 0 && s.entries[s.nodes[n].entry].gone {
		n = s.nodes[n].next
	}
	switch {
	case n < 0:
		delete(s.index, k)
		return -1
	case n != l.head:
		l.head = n
		s.index[k] = l
	}
	return s.nodes[n].entry
}

// maybeCompact rebuilds the store without its gone entries once they
// outnumber the live ones, renumbering entries in issuance order so age
// comparisons still hold.
func (s *coverStore) maybeCompact() {
	gone := len(s.entries) - s.live
	if gone < compactMin || gone <= s.live {
		return
	}
	remap := make([]int32, len(s.entries))
	kept := s.entries[:0]
	s.ordered = true
	for i, en := range s.entries {
		remap[i] = -1
		if en.gone {
			continue
		}
		if n := len(kept); n > 0 && en.expiresMs < kept[n-1].expiresMs {
			s.ordered = false
		}
		remap[i] = int32(len(kept))
		kept = append(kept, en)
	}
	s.entries = kept
	s.swept = 0
	nodes := make([]coverNode, 0, 2*len(kept))
	for k, l := range s.index {
		nl := coverList{head: -1, tail: -1}
		for n := l.head; n >= 0; n = s.nodes[n].next {
			e := remap[s.nodes[n].entry]
			if e < 0 {
				continue
			}
			i := int32(len(nodes))
			nodes = append(nodes, coverNode{entry: e, next: -1})
			if nl.head < 0 {
				nl.head = i
			} else {
				nodes[nl.tail].next = i
			}
			nl.tail = i
		}
		if nl.head < 0 {
			delete(s.index, k)
		} else {
			s.index[k] = nl
		}
	}
	s.nodes = nodes
}

// len counts entries neither consumed nor swept: an entry that expired
// after the last redemption still counts until the next one sweeps it.
func (s *coverStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// counts returns the issued, hit, miss and expired totals.
func (s *coverStore) counts() (issued, hits, misses, expired int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issued, s.hits, s.misses, s.expiredN
}
