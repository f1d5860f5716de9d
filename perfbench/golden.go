package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cbws/internal/harness"
	"cbws/internal/workload"
)

// goldenPath is the pinned manifest golden-fill must reproduce byte for
// byte. `make golden` re-makes it.
const goldenPath = "golden/seed.json"

// goldenFill fills the full golden matrix (every kernel × every golden
// roster member) at full machine width through harness.BuildGolden,
// exactly as `make golden` and the figures command do.
type goldenFill struct {
	// maxEvent is each kernel's largest single-event instruction count
	// within the window, from an untimed pass over its generator.
	maxEvent map[string]int
	genNs    float64 // ns per generated instruction in that pass
	// want is the SHA-256 of golden/seed.json: the benchmark keeps no
	// copy of the manifest, so retained_heap_mb counts the matrix alone.
	want [sha256.Size]byte
	// obsDir receives the harness's run records in traced rounds.
	obsDir string

	// Set-up state.
	specs     []workload.Spec
	factories []harness.Factory
	matrix    *harness.Matrix

	// Last round.
	manifestOK bool // false also when no manifest was built
	failed     int  // cells whose Matrix.Get returns an error
	fillWall   time.Duration
	cells      []cellTime // traced rounds: per-cell times from the run records
}

func (g *goldenFill) prepare() error {
	want, err := harness.ReadGolden(goldenPath)
	if err != nil {
		return err
	}
	g.maxEvent = map[string]int{}
	var instr uint64
	t := time.Now()
	for _, s := range workload.All() {
		sum := summarize(s.Make(), want.Instructions, false)
		g.maxEvent[s.Name] = sum.maxCount
		instr += sum.instr
	}
	g.genNs = float64(time.Since(t).Nanoseconds()) / float64(instr)
	return nil
}

// setup reads the manifest, resolves the kernels and the roster, and
// builds an empty matrix over the manifest's window.
func (g *goldenFill) setup() error {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	var want harness.GoldenManifest
	if err := json.Unmarshal(b, &want); err != nil {
		return fmt.Errorf("%s: %w", goldenPath, err)
	}
	opts := harness.DefaultOptions()
	opts.Sim.MaxInstructions = want.Instructions
	opts.Sim.WarmupInstructions = want.Warmup
	opts.Parallel = runtime.GOMAXPROCS(0)
	g.want = sha256.Sum256(b)
	g.specs = workload.All()
	g.factories = harness.GoldenPrefetchers()
	g.matrix = harness.NewMatrix(opts)
	return nil
}

// round runs BuildGolden, which fills the matrix with the harness's own
// scheduler. A traced round fills a matrix that also writes a run
// record per cell under obsDir; the records' wall times are the cell
// times of the ladder.
func (g *goldenFill) round(tr *tracer) (roundOut, error) {
	if tr != nil {
		if err := os.RemoveAll(g.obsDir); err != nil {
			return roundOut{}, err
		}
		opts := g.matrix.Options()
		opts.ObsDir = g.obsDir
		g.matrix = harness.NewMatrix(opts)
	}
	sp := tr.start("harness.BuildGolden", 0)
	man, buildErr := harness.BuildGolden(g.matrix, g.specs, g.factories)
	g.fillWall = sp.end()
	// Matrix memoizes a failed cell, so these Gets simulate nothing.
	g.failed = 0
	for _, s := range g.specs {
		for _, f := range g.factories {
			if _, err := g.matrix.Get(s, f); err != nil {
				g.failed++
				fmt.Fprintln(os.Stderr, "golden-fill:", err)
			}
		}
	}
	if buildErr != nil && g.failed == 0 {
		return roundOut{}, buildErr
	}
	g.manifestOK = false
	if buildErr == nil {
		b, err := man.Encode()
		if err != nil {
			return roundOut{}, err
		}
		g.manifestOK = sha256.Sum256(b) == g.want
	}
	cells := len(g.specs) * len(g.factories)
	cfg := g.matrix.Options().Sim
	out := roundOut{
		ops:     int64(cells),
		failed:  int64(g.failed),
		instr:   uint64(cells-g.failed) * cfg.MaxInstructions,
		simWall: g.fillWall,
	}
	if tr != nil && g.failed == 0 {
		var err error
		if g.cells, err = g.readRecords(); err != nil {
			return roundOut{}, err
		}
	}
	return out, nil
}

// readRecords reads the wall time of every cell from the run records
// the harness wrote under obsDir.
func (g *goldenFill) readRecords() ([]cellTime, error) {
	var out []cellTime
	for _, s := range g.specs {
		for _, f := range g.factories {
			rec, err := harness.ReadRunRecord(filepath.Join(g.obsDir, harness.CellFileName(s.Name, f.Name)+".json"))
			if err != nil {
				return nil, err
			}
			out = append(out, cellTime{f.Name, time.Duration(rec.WallTime * float64(time.Second))})
		}
	}
	return out, nil
}

func (g *goldenFill) check() []string {
	var bad []string
	// With failed cells no manifest is built; the failures are counted.
	if g.failed == 0 && !g.manifestOK {
		bad = append(bad, "manifest differs from "+goldenPath)
	}
	cfg := g.matrix.Options().Sim
	for _, s := range g.specs {
		for _, f := range g.factories {
			if res, err := g.matrix.Get(s, f); err == nil {
				bad = append(bad, checkCell(res, cfg, g.maxEvent[s.Name])...)
			}
		}
	}
	return bad
}

func (g *goldenFill) layers(m map[string]metric) {
	m["workload.gen_ns_per_instr"] = metric{g.genNs, "ns"}
	columns := map[string]float64{}
	var all []float64
	var sum time.Duration
	for _, c := range g.cells {
		columns[c.member] += c.d.Seconds()
		all = append(all, float64(c.d.Nanoseconds())/1e6)
		sum += c.d
	}
	for _, f := range g.factories {
		m["harness.column_s."+memberKey(f.Name)] = metric{columns[f.Name], "s"}
	}
	m["harness.cell_ms.p50"] = metric{percentile(all, 50), "ms"}
	m["harness.cell_ms.p95"] = metric{percentile(all, 95), "ms"}
	width := float64(g.matrix.Options().Parallel)
	m["harness.idle_core_s"] = metric{width*g.fillWall.Seconds() - sum.Seconds(), "s"}
}

func (g *goldenFill) release() error {
	g.matrix = nil
	return nil
}

// cellTime is the wall-clock time of one simulated cell.
type cellTime struct {
	member string
	d      time.Duration
}

func (g *goldenFill) cores() int { return runtime.GOMAXPROCS(0) }
