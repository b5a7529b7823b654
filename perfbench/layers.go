package main

import (
	"fmt"
	"math"
	"time"

	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

// layerMetrics computes every per-layer metric of one traced
// iteration: its spans sit under root in tr, and o is its outcome.
// Layers the benchmark calls directly are timed by their spans; layers
// reached only inside loadgen.Run or scenario.Run are probed and scaled
// by the call counts the run reports. The probes record their own spans
// in tr, outside the iteration. Layers the workload never reaches read
// 0, and unattributed_s is whatever of the iteration no layer covers.
func layerMetrics(o outcome, tr *tracer, root int) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["trace.run_s"] = tr.spans[root].seconds()
	self := tr.selfTimes(root)
	var err error
	switch o := o.(type) {
	case *loadgenOutcome:
		o.layers(m, self, tr)
	case *matrixOutcome:
		err = o.layers(m, self, tr)
	case *pipelineOutcome:
		o.layers(m, self, tr)
	default:
		err = fmt.Errorf("no layer attribution for %T", o)
	}
	if err != nil {
		return nil, err
	}
	attributed := 0.0
	for _, name := range selfLayers {
		attributed += m[name]
	}
	m["unattributed_s"] = m["trace.run_s"] - attributed
	return m, nil
}

// probe runs fn under a span named "probe."+name.
func probe(tr *tracer, name string, fn func()) {
	sp := tr.begin("probe." + name)
	fn()
	tr.end(sp)
}

func (o *loadgenOutcome) layers(m, self map[string]float64, tr *tracer) {
	r, cfg := o.res, o.cfg
	m["loadgen.run_s"] = self["loadgen.run"]
	m["loadgen.requests"] = float64(r.Requests)

	// Every user builds one netsim stream, and the run builds one CDN.
	probe(tr, "netsim.new", func() { m["netsim.new_ns"] = probeNetsimNew(cfg.Net) })
	m["netsim.new_s"] = m["netsim.new_ns"] * float64(r.Users) / 1e9
	probe(tr, "cdn.build", func() { m["cdn.build_s"] = probeCDNBuild(cfg) })

	// Legacy clients bypass browser.Request, and the result does not
	// split requests by client family, so the browser's call count is
	// the requests times the modern-client share of users.
	var bp browserProbe
	probe(tr, "browser.request", func() { bp = probeBrowser(cfg, 3000) })
	calls := float64(r.Requests) * (cfg.FirefoxShare + cfg.ChromeShare)
	m["browser.requests"] = calls
	m["browser.request_ns"], m["cdn.env_ns"] = bp.requestNs, bp.envNs
	m["browser.request_s"] = bp.requestNs * calls / 1e9
	m["cdn.env_s"] = bp.envNs * calls / 1e9
	m["browser.reuse_ratio"] = ratio(r.ReusedReqs, r.Requests)
	m["browser.coalesce_ratio"] = ratio(r.CoalescedReqs, r.Requests)

	// Per-user caches hold about one ticket per fresh connection; their
	// redemptions are inside browser.request_s, so cache.redeem_s
	// stays 0 here.
	m["cache.dns_hit_ratio"] = ratio(r.DNSCacheHits, r.DNSCacheHits+r.DNSQueries)
	m["cache.resume_ratio"] = ratio(r.ResumedConns, r.FreshConns)
	tickets := math.Max(1, math.Round(float64(r.FreshConns)/float64(r.Users)))
	m["cache.tickets"] = tickets
	probe(tr, "cache.redeem", func() { m["cache.redeem_ns"] = probeRedeem(cdnCerts(buildCDN(cfg)), int(tickets)) })
}

func (o *matrixOutcome) layers(m, self map[string]float64, tr *tracer) error {
	cells := o.res.Cells
	m["scenario.run_s"] = self["scenario.run"]
	m["scenario.cells"] = float64(len(cells))

	// scenario.Run generates and encodes one corpus per archetype and
	// decodes it once per cell: rebuild them the same way, at the
	// traced run's single worker, and time one decode of each.
	var sample certSample
	var corpora [][]*har.Page
	for _, a := range o.cfg.Archetypes {
		gcfg := webgen.DefaultConfig()
		gcfg.Sites = o.cfg.Sites
		gcfg.Seed = o.cfg.Seed
		gcfg.Workers = 1
		gcfg.Archetype = a
		sp := tr.begin("probe.corpus")
		blob, pages, err := generateColumnar(gcfg, tr)
		tr.end(sp)
		if err != nil {
			return err
		}
		s := tr.selfTimes(sp)
		m["webgen.generate_s"] += s["webgen.generate"]
		m["corpus.encode_s"] += s["corpus.encode"]
		m["webgen.pages"] += float64(pages)
		m["corpus.bytes"] += float64(len(blob))

		var decodeS float64
		var decoded []*har.Page
		probe(tr, "corpus.decode", func() { decodeS, decoded, err = probeDecode(blob) })
		if err != nil {
			return fmt.Errorf("decode %s corpus: %w", a, err)
		}
		m["corpus.decode_s"] += decodeS * float64(o.cellsPerArchetype())
		c := corpusCerts(decoded)
		sample.sans = append(sample.sans, c.sans...)
		sample.hosts = append(sample.hosts, c.hosts...)
		corpora = append(corpora, decoded)
	}
	m["corpus.decodes"] = float64(len(cells))
	probe(tr, "netsim.new", func() { m["netsim.new_ns"] = probeNetsimNew(webgen.DefaultConfig().Net) })
	m["netsim.new_s"] = m["netsim.new_ns"] * m["webgen.pages"] / 1e9
	m["webgen.generate_s"] -= m["netsim.new_s"]

	// Cells replay requests against each page's own environment, which
	// is scenario's code: only the browser's own time is attributed,
	// split into ticket work and the rest by replaying with the ticket
	// store on and off. Every profile and transport replays the same
	// requests, so the probe scales by the run's request count.
	var requests, reused, coalesced int
	sockets := make([]float64, len(cells))
	for i, c := range cells {
		requests += c.Requests
		reused += c.Reused
		coalesced += c.Coalesced
		sockets[i] = float64(c.Conns + c.Preconns)
	}
	var rp replayProbe
	probe(tr, "browser.request", func() { rp = probeReplay(corpora) })
	perCall := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(rp.cache.requests) }
	m["browser.requests"] = float64(requests)
	m["browser.request_ns"] = perCall(rp.withoutTickets)
	m["browser.request_s"] = m["browser.request_ns"] * float64(requests) / 1e9
	m["cache.redeem_s"] = perCall(rp.withTickets-rp.withoutTickets) * float64(requests) / 1e9
	m["browser.reuse_ratio"] = ratio(reused, requests)
	m["browser.coalesce_ratio"] = ratio(coalesced, requests)

	// A cell's ticket store grows by one ticket per socket it opens:
	// cache.redeem_ns is one redemption at the median cell's final size.
	tickets := math.Round(median(sockets))
	m["cache.tickets"] = tickets
	probe(tr, "cache.redeem", func() { m["cache.redeem_ns"] = probeRedeem(sample, int(tickets)) })
	m["cache.dns_hit_ratio"] = ratio(rp.cache.dnsHits, rp.cache.dnsHits+rp.cache.dnsQueries)
	m["cache.resume_ratio"] = ratio(rp.cache.resumed, rp.cache.handshakes)

	m["scenario.replay_s"] = m["scenario.run_s"] - m["webgen.generate_s"] - m["netsim.new_s"] -
		m["corpus.encode_s"] - m["corpus.decode_s"]
	return nil
}

func (o *pipelineOutcome) layers(m, self map[string]float64, tr *tracer) {
	// webgen builds one netsim stream per generated page.
	probe(tr, "netsim.new", func() { m["netsim.new_ns"] = probeNetsimNew(webgen.DefaultConfig().Net) })
	m["webgen.pages"] = float64(o.generated)
	m["netsim.new_s"] = m["netsim.new_ns"] * float64(o.generated) / 1e9
	m["webgen.generate_s"] = self["webgen.generate"] - m["netsim.new_s"]
	m["corpus.encode_s"] = self["corpus.encode"]
	m["corpus.decode_s"] = self["corpus.decode"]
	m["corpus.decodes"] = 1
	m["corpus.bytes"] = float64(o.corpusBytes)
	m["report.index_s"] = self["report.index"]
	m["report.tables_s"] = self["report.tables"]
}
