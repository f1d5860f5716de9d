package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cbws/internal/harness"
	"cbws/internal/sim"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// The replay-long make-up: memory-intensive kernels whose GHB and SMS
// columns are the most expensive, replayed under the members whose
// tables are Go maps today (GHB, SMS) against the no-prefetch floor.
// bzip2 and histo are also two of the paper's CBWS failure modes;
// stencil is its best case.
var (
	replayKernels = []string{"401.bzip2-source", "histo-large", "stencil-default"}
	replayMembers = []string{"none", "ghb-pc/dc", "sms", "cbws+sms"}
)

// replayLong packs the kernels into CBWC corpora during set-up and
// replays them from mmap, one cell at a time, at the harness default
// window (4M instructions, 1M warm-up).
type replayLong struct {
	dir       string
	cfg       sim.Config
	specs     []workload.Spec
	factories []harness.Factory
	gen       map[string]streamSummary // each generator's window, untimed

	// Set-up state.
	src     *harness.CorpusSource
	matrix  *harness.Matrix
	packed  uint64        // instructions packed by the last set-up
	packDur time.Duration // time corpus.Pack took in the last set-up
	fresh   bool          // corpora not yet compared with their generators

	replayNs float64
	cells    []cellTime
}

func (r *replayLong) prepare() error {
	r.cfg = harness.DefaultOptions().Sim
	r.gen = map[string]streamSummary{}
	for _, name := range replayKernels {
		s, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown kernel %q", name)
		}
		r.specs = append(r.specs, s)
		r.gen[name] = summarize(s.Make(), r.cfg.MaxInstructions, true)
	}
	for _, name := range replayMembers {
		f, err := harness.ResolveFactory(name)
		if err != nil {
			return err
		}
		r.factories = append(r.factories, f)
	}
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	return os.MkdirAll(r.dir, 0o755)
}

// setup packs every kernel's window into a corpus (the write side),
// opens the directory with mmap and builds a serial matrix over it.
func (r *replayLong) setup() error {
	r.packed, r.packDur = 0, 0
	for _, s := range r.specs {
		t := time.Now()
		res, err := corpus.Pack(filepath.Join(r.dir, s.Name+".cbwc"), s.Make(), r.cfg.MaxInstructions, corpus.Options{})
		if err != nil {
			return err
		}
		r.packDur += time.Since(t)
		r.packed += res.Instructions
	}
	src, err := harness.OpenCorpusDir(r.dir, true)
	if err != nil {
		return err
	}
	r.src = src
	r.matrix = harness.NewMatrix(harness.Options{Sim: r.cfg, Parallel: 1, Corpus: src})
	r.fresh = true
	return nil
}

// round replays every cell serially in a fixed order and times each
// Matrix.Get.
func (r *replayLong) round(tr *tracer) (roundOut, error) {
	sp := tr.start("harness.Matrix.Get replay", 0)
	r.cells = r.cells[:0]
	var out roundOut
	for _, s := range r.specs {
		for _, f := range r.factories {
			c, cpu0 := tr.start("harness.Matrix.Get "+s.Name+"/"+f.Name, sp.id), cpuTime()
			_, err := r.matrix.Get(s, f)
			d, cpu := c.end(), cpuTime()-cpu0
			out.ops++
			if err != nil {
				out.failed++
				fmt.Fprintln(os.Stderr, "replay-long:", err)
				continue
			}
			out.instr += r.cfg.MaxInstructions
			out.cellWall = append(out.cellWall, d)
			out.cellCPU = append(out.cellCPU, cpu)
			r.cells = append(r.cells, cellTime{f.Name, d})
		}
	}
	out.simWall = sp.end()
	return out, nil
}

func (r *replayLong) check() []string {
	var bad []string
	if r.fresh {
		// Each corpus must replay exactly its generator's event stream
		// over the window, and cover the window.
		r.fresh = false
		var instr uint64
		var replay time.Duration
		for _, s := range r.specs {
			if got := r.src.Instructions(s.Name); got < r.cfg.MaxInstructions {
				bad = append(bad, fmt.Sprintf("%s: corpus holds %d instructions, window is %d", s.Name, got, r.cfg.MaxInstructions))
			}
			if got, want := summarize(r.src.Override(s).Make(), r.cfg.MaxInstructions, true), r.gen[s.Name]; got != want {
				bad = append(bad, fmt.Sprintf("%s: corpus replay %+v differs from its generator %+v", s.Name, got, want))
			}
			t := time.Now()
			instr += summarize(r.src.Override(s).Make(), r.cfg.MaxInstructions, false).instr
			replay += time.Since(t)
		}
		r.replayNs = float64(replay.Nanoseconds()) / float64(instr)
	}
	// A failed cell is counted by round, not checked here.
	for _, s := range r.specs {
		for _, f := range r.factories {
			if res, err := r.matrix.Get(s, f); err == nil {
				bad = append(bad, checkCell(res, r.cfg, r.gen[s.Name].maxCount)...)
			}
		}
	}
	return bad
}

func (r *replayLong) layers(m map[string]metric) {
	m["corpus.pack_ns_per_instr"] = metric{float64(r.packDur.Nanoseconds()) / float64(r.packed), "ns"}
	m["corpus.replay_ns_per_instr"] = metric{r.replayNs, "ns"}
	columns := map[string]float64{}
	for _, c := range r.cells {
		columns[c.member] += c.d.Seconds()
	}
	for _, f := range r.factories {
		m["replay.column_s."+memberKey(f.Name)] = metric{columns[f.Name], "s"}
	}
}

func (r *replayLong) release() error {
	r.matrix = nil
	if r.src == nil {
		return nil
	}
	err := r.src.Close()
	r.src = nil
	return err
}

func (r *replayLong) cores() int { return 1 }
