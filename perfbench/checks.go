package main

import (
	"fmt"

	"cbws/internal/sim"
	"cbws/internal/trace"
)

// checkCell tests the properties every simulated cell must have,
// whatever the prefetcher. maxEvent is the largest instruction count of
// one event in the cell's trace window, found by a separate pass over
// the generator.
//
// PrefetchUseful + PrefetchLate <= PrefetchIssued is deliberately not
// tested: prefetches issued during warm-up are used after it, so
// golden cells exceed that bound on correct code.
func checkCell(res sim.Result, cfg sim.Config, maxEvent int) []string {
	m := res.Metrics
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s/%s: ", res.Workload, res.Prefetcher)+fmt.Sprintf(format, args...))
	}
	// The five Fig 13 classes need not partition DemandL2: demand
	// accesses merged into an in-flight miss are counted in DemandL2
	// but carried in no class.
	if classes := m.Timely + m.ShorterWT + m.NonTimely + m.Missing + m.PlainHit; classes > m.DemandL2 {
		fail("Fig 13 classes sum to %d > DemandL2 %d", classes, m.DemandL2)
	}
	if m.DemandL2Misses > m.DemandL2 {
		fail("DemandL2Misses %d > DemandL2 %d", m.DemandL2Misses, m.DemandL2)
	}
	if res.Prefetcher == "none" && (m.PrefetchIssued != 0 || m.Timely != 0 || m.ShorterWT != 0 || m.Wrong != 0) {
		fail("no-prefetch baseline issued %d, timely %d, shorter-wait %d, wrong %d",
			m.PrefetchIssued, m.Timely, m.ShorterWT, m.Wrong)
	}
	if m.Cycles == 0 || float64(m.Instructions) > float64(cfg.Core.Width)*float64(m.Cycles) {
		fail("IPC %d/%d above the core width %d", m.Instructions, m.Cycles, cfg.Core.Width)
	}
	want := int64(cfg.MaxInstructions - cfg.WarmupInstructions)
	if d := int64(m.Instructions) - want; d <= -int64(maxEvent) || d >= int64(maxEvent) {
		fail("measured %d instructions, want %d within one event (%d)", m.Instructions, want, maxEvent)
	}
	if m.BytesFromMem < m.DemandBytes {
		fail("BytesFromMem %d < DemandBytes %d", m.BytesFromMem, m.DemandBytes)
	}
	return bad
}

// streamSummary describes one event stream: its size, the largest
// instruction count of one event, and a hash over every field the trace
// codecs carry (Instr counts are normalized as the codecs store them).
type streamSummary struct {
	events   uint64
	instr    uint64
	maxCount int
	hash     uint64
}

// summarySink is a trace.BatchSink that builds a streamSummary. With
// hash false it only counts, so it measures generation cost.
type summarySink struct {
	s    streamSummary
	hash bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newSummarySink(hash bool) *summarySink {
	return &summarySink{s: streamSummary{hash: fnvOffset}, hash: hash}
}

func (k *summarySink) ConsumeBatch(batch []trace.Event) bool {
	for i := range batch {
		e := &batch[i]
		n := e.Count()
		k.s.events++
		k.s.instr += uint64(n)
		if n > k.s.maxCount {
			k.s.maxCount = n
		}
		if !k.hash {
			continue
		}
		h := (k.s.hash ^ uint64(e.Kind)) * fnvPrime
		switch e.Kind {
		case trace.Load, trace.Store:
			h = (h ^ e.PC) * fnvPrime
			h = (h ^ uint64(e.Addr)) * fnvPrime
		case trace.Branch:
			h = (h ^ e.PC) * fnvPrime
			if e.Taken {
				h = (h ^ 1) * fnvPrime
			}
		case trace.BlockBegin, trace.BlockEnd:
			h = (h ^ uint64(e.Block)) * fnvPrime
		default:
			h = (h ^ uint64(n)) * fnvPrime
		}
		k.s.hash = h
	}
	return true
}

// summarize drives gen, bounded to max instructions, into a summary.
func summarize(gen trace.Generator, max uint64, hash bool) streamSummary {
	k := newSummarySink(hash)
	trace.DriveBatches(trace.Limit{Gen: gen, Max: max}, k)
	return k.s
}
