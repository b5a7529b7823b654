package main

import (
	"bytes"
	"fmt"
	"net/netip"
	"time"

	"respectorigin/internal/cache"
	"respectorigin/internal/cdn"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/loadgen"
	"respectorigin/internal/netsim"
)

// Probes time a layer's public functions on workload-shaped inputs, for
// layers the workload reaches only inside loadgen.Run or scenario.Run.
// Each probe repeats its batch and keeps the median, so one preempted
// batch does not skew the per-call figure.

const probeBatches = 9

// sink keeps probed results reachable so the calls are not optimised
// away.
var sink any

// medianBatchNs times fn, which performs n calls, probeBatches times
// and returns the median cost per call in nanoseconds.
func medianBatchNs(n int, fn func()) float64 {
	per := make([]float64, probeBatches)
	for i := range per {
		t := time.Now()
		fn()
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// probeNetsimNew is the cost of one netsim.New with params p.
func probeNetsimNew(p netsim.Params) float64 {
	const n = 256
	return medianBatchNs(n, func() {
		for i := 0; i < n; i++ {
			sink = netsim.New(p, int64(i))
		}
	})
}

// buildCDN builds the serving environment loadgen.Run builds for cfg,
// through cdn's public API: Zones customer zones alternating
// experiment and control treatment, certificates reissued, and the
// configured deployment phase entered.
func buildCDN(cfg loadgen.Config) *cdn.CDN {
	c := cdn.New(cdn.Config{Seed: cfg.Seed})
	for i := 0; i < cfg.Zones; i++ {
		z := c.AddZone(zoneHost(i), cdn.SLATierFree, netip.AddrFrom4([4]byte{104, 18, byte(i >> 8), byte(i)}))
		if i%2 == 0 {
			z.Treatment = cdn.TreatmentExperiment
		} else {
			z.Treatment = cdn.TreatmentControl
		}
	}
	c.ReissueCertificates()
	switch cfg.Phase {
	case cdn.PhaseIP:
		c.EnterPhaseIP()
	case cdn.PhaseOrigin:
		c.EnterPhaseOrigin(netip.AddrFrom4([4]byte{104, 19, 0, 1}))
	}
	return c
}

func zoneHost(i int) string { return fmt.Sprintf("www.zone-%d.example", i) }

// probeCDNBuild is the wall time of building cfg's CDN, in seconds.
func probeCDNBuild(cfg loadgen.Config) float64 {
	return medianBatchNs(1, func() { sink = buildCDN(cfg) }) / 1e9
}

// certSample is the ticket-store input a probe replays: SAN lists of
// handshakes and hostnames requested.
type certSample struct {
	sans  [][]string
	hosts []string
}

// corpusCerts collects the SAN lists of every recorded TLS handshake
// and every requested hostname from decoded pages.
func corpusCerts(pages []*har.Page) certSample {
	var s certSample
	for _, p := range pages {
		for i := range p.Entries {
			en := &p.Entries[i]
			s.hosts = append(s.hosts, en.Host)
			if en.NewTLS && len(en.CertSANs) > 0 {
				s.sans = append(s.sans, en.CertSANs)
			}
		}
	}
	return s
}

// cdnCerts is the ticket-store input of a loadgen client: the SAN lists
// its CDN presents for every zone and the shared third party.
func cdnCerts(c *cdn.CDN) certSample {
	var s certSample
	hosts := []string{c.ThirdParty}
	for _, z := range c.Zones() {
		hosts = append(hosts, z.Host)
	}
	for _, h := range hosts {
		addrs, err := c.Lookup(h)
		if err != nil || len(addrs) == 0 {
			continue
		}
		s.hosts = append(s.hosts, h)
		s.sans = append(s.sans, c.CertSANs(h, addrs[0]))
	}
	return s
}

// probeRedeem is the cost of one RedeemTicketProto against a store
// holding tickets tickets minted from the sample's SAN lists, redeeming
// the sample's hostnames in turn. Tickets are reusable (the default),
// so the store keeps its size across redemptions.
func probeRedeem(s certSample, tickets int) float64 {
	if len(s.sans) == 0 || len(s.hosts) == 0 {
		return 0
	}
	cc := cache.New(cache.Options{})
	for i := 0; i < tickets; i++ {
		cc.StoreTicketProto(s.sans[i%len(s.sans)], cache.ProtoWireH2)
	}
	const n = 512
	next := 0
	return medianBatchNs(n, func() {
		for i := 0; i < n; i++ {
			sink = cc.RedeemTicketProto(s.hosts[next%len(s.hosts)], cache.ProtoWireH2)
			next++
		}
	})
}

func ratio[T int | int64 | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// probeDecode is the wall time of one columnar decode of blob, in
// seconds, and the decoded pages.
func probeDecode(blob []byte) (float64, []*har.Page, error) {
	var pages []*har.Page
	var err error
	ns := medianBatchNs(1, func() {
		pages, err = corpus.ReadAll(corpus.NewReader(bytes.NewReader(blob), corpus.FormatColumnar))
	})
	return ns / 1e9, pages, err
}
