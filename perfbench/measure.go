package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloadRun is one workload's life within a run.
type workloadRun interface {
	// prepare makes the untimed inputs that every set-up and round
	// reuses.
	prepare() error
	// setup is one timed set-up; it leaves the state ready for a round.
	setup() error
	// round runs one timed round: the same operations every time. tr
	// is nil in untraced rounds.
	round(tr *tracer) (roundOut, error)
	// check validates the last round's outputs, untimed, and returns
	// one line per failed check. It drops any copy of an output it
	// holds, since the retained heap is read after it.
	check() []string
	// layers adds the per-layer metrics of the last traced round.
	layers(m map[string]metric)
	// release drops the set-up state, untimed, once its round is
	// checked, and readies the inputs of the next set-up. It is safe to
	// call when there is no set-up state.
	release() error
	// cores is how many cores a round keeps busy; the calibration runs
	// on as many.
	cores() int
}

// roundOut is what one round reports besides its resource use.
type roundOut struct {
	ops     int64         // operations attempted
	failed  int64         // operations that failed
	instr   uint64        // instructions simulated, warm-up included
	simWall time.Duration // wall-clock time of the phase that simulates
	// cellWall and cellCPU, when set, time each simulated cell of a
	// serial round in a fixed order, in wall-clock and CPU time;
	// sim_mips and cpu_s then sum each cell's median over rounds, so
	// that a burst of lost CPU in one round moves nothing.
	cellWall, cellCPU []time.Duration
}

// minSetups is the least number of set-ups a run times; setup_s is
// their median.
const minSetups = 7

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is the difference between two usage readings.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func (u usage) since() cost {
	now := readUsage()
	return cost{
		wall:    now.wall.Sub(u.wall),
		cpu:     now.cpu - u.cpu,
		mallocs: now.mallocs - u.mallocs,
		bytes:   now.bytes - u.bytes,
		gcs:     now.gcs - u.gcs,
	}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runMeasured is the untraced run: set-up and a round, repeated until
// the rounds have used the time budget, then medians over rounds.
//
// Host times are normalized for the box's speed during the run: a
// calibration (see calibrate) runs before every round and after the
// last; each median wall time is scaled by calRef over the median
// calibration wall time, each rate by the inverse, and the CPU time by
// calRefCPU over the median calibration CPU time per core. The raw
// figures are printed on the lines before the JSON result.
func runMeasured(name string, seed int64, budget time.Duration) (*result, error) {
	w := newWorkload(name, seed)
	defer w.release()
	if err := w.prepare(); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var (
		setups, cals, calCPU, mips, cpu, allocs, mb, heap []float64
		cellWall, cellCPU                                 [][]time.Duration
		instr                                             uint64
		spent                                             time.Duration
	)
	for {
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		cal0, calCPU0, err := calibrate(w.cores())
		if err != nil {
			return nil, err
		}
		before := readUsage()
		out, err := w.round(nil)
		c := before.since()
		if err != nil {
			return nil, err
		}
		cals = append(cals, cal0.Seconds())
		calCPU = append(calCPU, calCPU0.Seconds())
		res.Attempted += out.ops
		res.Failed += out.failed
		instr = out.instr
		mips = append(mips, float64(out.instr)/out.simWall.Seconds()/1e6)
		cpu = append(cpu, c.cpu.Seconds())
		if out.cellWall != nil {
			cellWall = append(cellWall, out.cellWall)
			cellCPU = append(cellCPU, out.cellCPU)
		}
		allocs = append(allocs, float64(c.mallocs)/1e3)
		mb = append(mb, float64(c.bytes)/1e6)
		if bad := w.check(); len(bad) > 0 {
			res.Correct = false
			reportBad(name, bad)
		}
		heap = append(heap, float64(liveHeap())/1e6)
		if err := w.release(); err != nil {
			return nil, err
		}
		fmt.Printf("round %d: wall %.3fs cpu %.3fs sim %.3f Minstr/s calibration %.4fs wall, %.4fs cpu per core\n",
			len(mips), c.wall.Seconds(), c.cpu.Seconds(), mips[len(mips)-1], cal0.Seconds(), calCPU0.Seconds())
		spent += c.wall
		if spent+c.wall > budget {
			break
		}
	}
	cal, calCPU1, err := calibrate(w.cores())
	if err != nil {
		return nil, err
	}
	cals = append(cals, cal.Seconds())
	calCPU = append(calCPU, calCPU1.Seconds())
	for len(setups) < minSetups {
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if err := w.release(); err != nil {
			return nil, err
		}
	}
	rate, cpuMed := median(mips), median(cpu)
	if len(cellWall) > 0 {
		rate = float64(instr) / sumOfMedians(cellWall) / 1e6
		cpuMed = sumOfMedians(cellCPU)
	}
	norm := calRef.Seconds() / median(cals)
	normCPU := calRefCPU.Seconds() / median(calCPU)
	fmt.Printf("raw: setup %.6gs sim %.5g Minstr/s cpu %.5gs; calibration median %.4gs wall, %.4gs cpu per core\n",
		median(setups), rate, cpuMed, median(cals), median(calCPU))
	res.Metrics["setup_s"] = metric{median(setups) * norm, "s"}
	res.Metrics["sim_mips"] = metric{rate / norm, "Minstr/s"}
	res.Metrics["cpu_s"] = metric{cpuMed * normCPU, "s"}
	res.Metrics["allocs_k"] = metric{median(allocs), "1e3"}
	res.Metrics["alloc_mb"] = metric{median(mb), "MB"}
	res.Metrics["retained_heap_mb"] = metric{median(heap), "MB"}
	return res, nil
}

// runTraced runs the per-layer ladder. The named workload runs one
// untraced and one traced round, whose difference is the tracing
// overhead; the other two workloads run one traced round each, so that
// every per-layer metric is measured on the workload it belongs to;
// then the microbenchmark ladder (engine, cache, prefetcher call
// streams) runs on fixed inputs.
func runTraced(name string, seed int64) (*result, error) {
	tr := newTracer()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	m := res.Metrics
	cal, _, err := calibrate(runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	// Per-layer times are raw; the calibration lets a reader scale them
	// as the end-to-end times are scaled.
	m["host.calibration_ms"] = metric{float64(cal.Nanoseconds()) / 1e6, "ms"}
	for _, n := range workloadNames {
		w := newWorkload(n, seed)
		err := func() error {
			defer w.release()
			if err := w.prepare(); err != nil {
				return err
			}
			var untraced roundOut
			if n == name {
				if err := w.setup(); err != nil {
					return err
				}
				out, err := w.round(nil)
				if err != nil {
					return err
				}
				untraced = out
				res.Attempted += out.ops
				res.Failed += out.failed
				if bad := w.check(); len(bad) > 0 {
					res.Correct = false
					reportBad(n, bad)
				}
				if err := w.release(); err != nil {
					return err
				}
			}
			sp := tr.start("workload."+n, 0)
			if err := w.setup(); err != nil {
				return err
			}
			before := readUsage()
			out, err := w.round(tr)
			c := before.since()
			sp.end()
			if err != nil {
				return err
			}
			res.Attempted += out.ops
			res.Failed += out.failed
			if bad := w.check(); len(bad) > 0 {
				res.Correct = false
				reportBad(n, bad)
			}
			w.layers(m)
			if err := w.release(); err != nil {
				return err
			}
			if n == name {
				u := float64(untraced.instr) / untraced.simWall.Seconds() / 1e6
				t := float64(out.instr) / out.simWall.Seconds() / 1e6
				m["trace.sim_mips_untraced"] = metric{u, "Minstr/s"}
				m["trace.sim_mips_traced"] = metric{t, "Minstr/s"}
				m["trace.overhead_pct"] = metric{(u/t - 1) * 100, "%"}
				m["runtime.gc_cycles"] = metric{float64(c.gcs), "count"}
			}
			return nil
		}()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
	}
	bad, err := runLadder(tr, m)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		res.Correct = false
		reportBad("ladder", bad)
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}

func reportBad(name string, bad []string) {
	const show = 20
	for i, b := range bad {
		if i == show {
			fmt.Fprintf(os.Stderr, "%s: ... and %d more failed checks\n", name, len(bad)-show)
			break
		}
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", name, b)
	}
}

// sumOfMedians sums each cell's median over rounds, in seconds. Every
// round times the same cells in the same order.
func sumOfMedians(rounds [][]time.Duration) float64 {
	var sum float64
	col := make([]float64, len(rounds))
	for i := range rounds[0] {
		for r := range rounds {
			col[r] = rounds[r][i].Seconds()
		}
		sum += median(col)
	}
	return sum
}

// median returns the middle value (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// memberKey turns a prefetcher name into a metric-name component:
// metric names allow only letters, digits, '_', '.' and '-'.
func memberKey(name string) string {
	return strings.NewReplacer("/", "-", "+", "-").Replace(name)
}

// span is one recorded interval: a call into a layer's public functions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced rounds pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle ends one span.
type spanHandle struct {
	t     *tracer
	id    int
	start time.Time
}

// start opens a span under parent (0: a root span).
func (t *tracer) start(name string, parent int) spanHandle {
	now := time.Now()
	if t == nil {
		return spanHandle{start: now}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return spanHandle{t: t, id: id, start: now}
}

// reserve makes room for n more spans, so that recording them does not
// allocate.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	t.spans = slices.Grow(t.spans, n)
	t.mu.Unlock()
}

// end closes the span and returns its duration.
func (h spanHandle) end() time.Duration {
	now := time.Now()
	if h.t != nil {
		h.t.mu.Lock()
		h.t.spans[h.id-1].End = now.Sub(h.t.t0).Nanoseconds()
		h.t.mu.Unlock()
	}
	return now.Sub(h.start)
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
