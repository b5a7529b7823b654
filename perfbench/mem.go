package main

import (
	"runtime/metrics"
	"time"
)

// memPeak samples the Go runtime's resident memory — everything it has
// mapped minus what it has released to the OS — every millisecond
// while an iteration runs, and keeps the highest reading. The process's
// own high-water mark would be the largest of a few dozen such peaks,
// which rests on whichever iteration the garbage collector happened to
// catch late; the median of per-iteration peaks repeats across runs.
type memPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() - s[1].Value.Uint64(); v > m.peak {
				m.peak = v
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end stops sampling and returns the peak in MiB.
func (m *memPeak) end() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}
