package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cbws/internal/branch"
	"cbws/internal/check"
	"cbws/internal/engine"
	"cbws/internal/harness"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// The microbenchmark ladder runs on one captured kernel window: the
// golden window of stencil-default, a memory-intensive kernel with
// annotated tight loops (so CBWS trains) and L1 evictions (so SMS and
// Gaze observe generation ends).
const (
	ladderKernel = "stencil-default"
	ladderReps   = 5 // timed repetitions; the median is reported
)

// idealMemory is a fixed-latency engine.MemPort: every access completes
// after the L1 hit latency, so the engine runs without a hierarchy.
type idealMemory struct{ latency uint64 }

func (m idealMemory) Load(_ uint64, _ mem.Addr, now uint64) uint64  { return now + m.latency }
func (m idealMemory) Store(_ uint64, _ mem.Addr, now uint64) uint64 { return now + m.latency }

// medianTime runs fn reps times and returns the median duration.
func medianTime(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t).Nanoseconds())
	}
	return time.Duration(median(ds))
}

// runLadder measures the engine with ideal memory, the engine plus the
// cache hierarchy under no prefetching, and every golden roster
// member's prefetcher on a recorded call stream.
func runLadder(tr *tracer, m map[string]metric) ([]string, error) {
	root := tr.start("ladder", 0)
	defer root.end()
	spec, ok := workload.ByName(ladderKernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", ladderKernel)
	}
	want, err := harness.ReadGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = want.Instructions
	cfg.WarmupInstructions = want.Warmup
	capt := trace.Capture(trace.Limit{Gen: spec.Make(), Max: cfg.MaxInstructions})
	instr := float64(capt.Instructions())
	var bad []string

	sp := tr.start("engine.ConsumeBatch ideal", root.id)
	var committed uint64
	ideal := medianTime(ladderReps, func() {
		eng, err := engine.New(cfg.Core, idealMemory{latency: cfg.Memory.L1.LatencyCycles}, engine.NopBlocks{})
		if err != nil {
			bad = append(bad, err.Error())
			return
		}
		bp, err := branch.New(cfg.Branch)
		if err != nil {
			bad = append(bad, err.Error())
			return
		}
		eng.AttachBranchPredictor(bp)
		capt.GenerateBatches(eng)
		committed = eng.Finish().Instructions
	})
	sp.end()
	if committed != capt.Instructions() {
		bad = append(bad, fmt.Sprintf("ideal engine committed %d of %d instructions", committed, capt.Instructions()))
	}
	sp = tr.start("sim.RunContext none", root.id)
	none := medianTime(ladderReps, func() {
		if _, err := sim.RunContext(context.Background(), cfg, capt, prefetch.NewNone()); err != nil {
			bad = append(bad, err.Error())
		}
	})
	sp.end()
	m["engine.ideal_ns_per_instr"] = metric{float64(ideal.Nanoseconds()) / instr, "ns"}
	m["sim.none_ns_per_instr"] = metric{float64(none.Nanoseconds()) / instr, "ns"}
	m["cache.ns_per_instr"] = metric{float64((none - ideal).Nanoseconds()) / instr, "ns"}

	for _, f := range harness.GoldenPrefetchers() {
		if f.Name == "none" {
			continue
		}
		b, err := memberLadder(tr, root.id, cfg, capt, f.Name, m)
		if err != nil {
			return nil, err
		}
		bad = append(bad, b...)
	}
	return bad, nil
}

// memberLadder records one member's call stream on the captured window
// and replays it: into fresh instances of the member (timed, and the
// issued lines checked), and into the member's naive reference model
// where internal/check has one.
func memberLadder(tr *tracer, parent int, cfg sim.Config, capt *trace.Trace, name string, m map[string]metric) ([]string, error) {
	sp := tr.start("prefetch "+name, parent)
	defer sp.end()
	var bad []string
	plain, err := registry.New(name)
	if err != nil {
		return nil, err
	}
	direct, err := sim.RunContext(context.Background(), cfg, capt, plain)
	if err != nil {
		return nil, err
	}
	inner, err := registry.New(name)
	if err != nil {
		return nil, err
	}
	wrapped, rec := newRecorder(inner)
	recorded, err := sim.RunContext(context.Background(), cfg, capt, wrapped)
	if err != nil {
		return nil, err
	}
	if recorded != direct {
		bad = append(bad, fmt.Sprintf("%s: recording changed the simulation: %v vs %v", name, recorded, direct))
	}
	st := countOps(rec.ops)

	var mallocs uint64
	ds := make([]float64, ladderReps)
	for i := range ds {
		p, err := registry.New(name)
		if err != nil {
			return nil, err
		}
		p.Reset()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		err = replay(rec.ops, p)
		ds[i] = float64(time.Since(t).Nanoseconds())
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: replay into a fresh instance diverged: %v", name, err))
			break
		}
	}
	if ref := referenceModel(name); ref != nil {
		if err := replay(rec.ops, ref); err != nil {
			bad = append(bad, fmt.Sprintf("%s: replay into the reference model diverged: %v", name, err))
		}
	}
	k := "prefetch." + memberKey(name)
	m[k+".ns_per_call"] = metric{median(ds) / float64(st.calls), "ns"}
	m[k+".allocs_per_kcall"] = metric{float64(mallocs) * 1e3 / float64(st.calls), "count"}
	m[k+".issued_per_kcall"] = metric{float64(st.issued) * 1e3 / float64(st.calls), "count"}
	return bad, nil
}

// referenceModel returns the naive reference model of a member,
// configured as the differential tests in internal/check configure it
// against the member's defaults, or nil when there is none.
func referenceModel(name string) accessTarget {
	switch name {
	case "cbws":
		return check.NewRefCBWS(check.RefCBWSConfig{MaxVector: 16, Steps: 4, HistoryDepth: 3,
			TableEntries: 16, HashBits: 12, StrideBits: 16, AddrBits: 32})
	case "pythia":
		return check.NewRefPythia(check.RefPythiaConfig{
			Actions:         []int8{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 32, -1, -2, -3, -6},
			Feature1Entries: 4096, Feature2Entries: 1024, DeltaHistory: 4, EQSize: 64, QBits: 16,
			AlphaShift: 3, GammaShift: 2, EpsilonShift: 6, TimelyAge: 8,
			RewardAccurateTimely: 20, RewardAccurateLate: 12, RewardInaccurate: -14,
			RewardNoPrefGood: 12, RewardNoPrefBad: -4})
	case "gaze":
		return check.NewRefGaze(check.RefGazeConfig{RegionBytes: 4096, ActiveEntries: 64,
			PatternEntries: 512, OrderLines: 8, ConfMax: 3, ConfThreshold: 2})
	}
	return nil
}
