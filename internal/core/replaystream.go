package core

import (
	"respectorigin/internal/cache"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
)

// ReplayReaderSequence streams pages out of a corpus reader and folds
// each page's warm/cold replay into aggregate per-visit ledgers, so a
// multi-gigabyte on-disk corpus replays in constant memory: no page
// slice is ever materialized. Element v of the result is what visit
// v+1 paid summed over every page; pages-read is returned alongside.
//
// Ledger addition is associative and commutative, so the totals are
// identical to replaying an in-memory page slice (report.Corpus.WarmCold
// over the same pages) — the property the streaming migration's tests
// pin down. The reader is left at end of stream; closing it stays with
// the caller.
func ReplayReaderSequence(r corpus.Reader, visits int, opts cache.Options, proto Protocol) ([]VisitCosts, int, error) {
	if visits <= 0 {
		visits = 1
	}
	acc := make([]VisitCosts, visits)
	pages := 0
	err := corpus.ForEach(r, func(p *har.Page) error {
		for v, vc := range ProtocolReplaySequence(p, visits, opts, proto) {
			acc[v].Add(vc)
		}
		pages++
		return nil
	})
	if err != nil {
		return nil, pages, err
	}
	return acc, pages, nil
}
