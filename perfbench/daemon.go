package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/harness"
	"cbws/internal/registry"
	"cbws/internal/service"
	"cbws/internal/sim"
	"cbws/internal/stats"
	"cbws/internal/workload"
)

// The daemon-sweep make-up. Jobs simulate a 200k-instruction window
// (50k warm-up) under the cheap members, so that the service, the
// api/v1 wire, the result cache and the per-job bookkeeping do the
// work rather than the prefetchers.
const (
	daemonWindow    = 200_000
	daemonWarmup    = 50_000
	hotPasses       = 16 // each round requests every cached entry this many times
	coldPerCell     = 4  // distinct configs per kernel × member in the cold sweep
	coldChecked     = 8  // cold jobs per round re-simulated directly
	daemonCodeLabel = "perfbench"
)

var daemonMembers = []string{"none", "stride"}

// hotConfigs are the configurations of the cached population: the base
// and three single-field variants of it.
var hotConfigs = []any{
	nil,
	map[string]any{"Memory": map[string]any{"MemoryLatency": 400}},
	map[string]any{"Core": map[string]any{"ROBEntries": 64}},
	map[string]any{"Core": map[string]any{"MispredictPenalty": 20}},
}

// daemonJob is one submission: its wire body, its parsed spec and its
// content address.
type daemonJob struct {
	body []byte
	spec service.JobSpec
	key  string
	want [sha256.Size]byte // hot jobs: hash of the stored bytes in the cache directory
}

// daemonSweep serves Service.Handler on a loopback listener and drives
// it through the api/v1 Client with at most GOMAXPROCS closed-loop
// callers. Each round restarts the daemon over a copy of a result-cache
// directory an earlier instance populated and drained, requests every
// cached entry (hot sweep), then submits jobs over distinct configs no
// daemon has seen (cold sweep).
type daemonSweep struct {
	seed     int64
	dir      string
	width    int
	base     sim.Config
	hot      []daemonJob
	hotOrder []int // indices into hot, hotPasses times over, shuffled
	cold     []daemonJob
	checked  []int       // indices into cold re-simulated by check
	slot     map[int]int // index into cold → index into checked
	maxEvent map[string]int

	// Set-up state.
	svc       *service.Service
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *apiv1.Client
	restart   time.Duration
	entries   int
	backoffs  atomic.Int64

	// Last round, in slices sized in prepare. check drops each cold
	// reply once it is checked and keeps only the seeded sample's
	// metrics, so that the retained heap holds no reply.
	hotLat, coldLat []time.Duration
	hotWall         time.Duration
	coldRes         [][]byte
	sampleMetrics   []stats.Metrics // per checked cold job, from its reply
	sampleOK        []bool          // the reply of that job was checked
	mu              sync.Mutex
	failed          atomic.Int64    // failed requests
	bad             []string        // failed checks found during the round
	vars            [3]service.Vars // before hot, after hot, after cold
	inproc          time.Duration   // traced: median Submit+Cache.Get per hit
	heapPerJob      float64         // traced: retained bytes per cold job
	directDur       []time.Duration
}

func (d *daemonSweep) warmDir() string  { return filepath.Join(d.dir, "warm") }
func (d *daemonSweep) roundDir() string { return filepath.Join(d.dir, "round") }

func (d *daemonSweep) serviceConfig(dir string) service.Config {
	return service.Config{Workers: d.width, CacheDir: dir, BaseSim: d.base, CodeVersion: daemonCodeLabel}
}

// prepare draws the job lists from the seed, populates the warm cache
// directory with an earlier daemon instance and drains it, and copies
// it for the first round.
func (d *daemonSweep) prepare() error {
	d.width = runtime.GOMAXPROCS(0)
	d.base = sim.DefaultConfig()
	d.base.MaxInstructions = daemonWindow
	d.base.WarmupInstructions = daemonWarmup
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	d.maxEvent = map[string]int{}
	for _, s := range workload.All() {
		d.maxEvent[s.Name] = summarize(s.Make(), daemonWindow, false).maxCount
	}

	// The cached population: every kernel × member × hot config.
	seen := map[string]bool{}
	for _, s := range workload.All() {
		for _, m := range daemonMembers {
			for _, cfg := range hotConfigs {
				j, err := d.job(s.Name, m, cfg)
				if err != nil {
					return err
				}
				seen[j.key] = true
				d.hot = append(d.hot, j)
			}
		}
	}
	// The cold sweep: per kernel × member, distinct configs drawn from
	// the seed, none of them cached.
	rng := rand.New(rand.NewPCG(uint64(d.seed), 0x9e3779b97f4a7c15))
	for _, s := range workload.All() {
		for _, m := range daemonMembers {
			for n := 0; n < coldPerCell; {
				cfg := map[string]any{
					"Memory": map[string]any{"MemoryLatency": 200 + rng.IntN(201)},
					"Core": map[string]any{
						"ROBEntries":        64 + 32*rng.IntN(7),
						"MispredictPenalty": 8 + rng.IntN(17),
					},
				}
				j, err := d.job(s.Name, m, cfg)
				if err != nil {
					return err
				}
				if seen[j.key] {
					continue
				}
				seen[j.key] = true
				d.cold = append(d.cold, j)
				n++
			}
		}
	}
	rng.Shuffle(len(d.cold), func(i, k int) { d.cold[i], d.cold[k] = d.cold[k], d.cold[i] })
	for p := 0; p < hotPasses; p++ {
		for i := range d.hot {
			d.hotOrder = append(d.hotOrder, i)
		}
	}
	rng.Shuffle(len(d.hotOrder), func(i, k int) { d.hotOrder[i], d.hotOrder[k] = d.hotOrder[k], d.hotOrder[i] })
	d.checked = rng.Perm(len(d.cold))[:coldChecked]
	d.slot = map[int]int{}
	for k, i := range d.checked {
		d.slot[i] = k
	}
	d.sampleMetrics = make([]stats.Metrics, coldChecked)
	d.sampleOK = make([]bool, coldChecked)
	d.hotLat = make([]time.Duration, len(d.hotOrder))
	d.coldLat = make([]time.Duration, len(d.cold))
	d.coldRes = make([][]byte, len(d.cold))

	if err := d.populate(); err != nil {
		return err
	}
	return d.copyWarm()
}

// job builds one submission body over the base config.
func (d *daemonSweep) job(wl, member string, cfg any) (daemonJob, error) {
	req := map[string]any{"workload": wl, "prefetcher": member}
	if cfg != nil {
		req["config"] = cfg
	}
	body, err := json.Marshal(req)
	if err != nil {
		return daemonJob{}, err
	}
	spec, err := service.ParseSpec(body, d.base)
	if err != nil {
		return daemonJob{}, err
	}
	return daemonJob{body: body, spec: spec, key: spec.Key(daemonCodeLabel)}, nil
}

// populate runs an earlier daemon over the warm directory, simulates
// the hot population in-process, drains it, and reads back the stored
// bytes every hot reply must equal.
func (d *daemonSweep) populate() error {
	svc, err := service.New(d.serviceConfig(d.warmDir()))
	if err != nil {
		return err
	}
	const batch = 32 // below the default queue depth of 64
	for i := 0; i < len(d.hot); i += batch {
		var pending []string
		for _, j := range d.hot[i:min(i+batch, len(d.hot))] {
			view, err := svc.Submit(j.spec)
			if err != nil {
				return err
			}
			if view.Key != j.key {
				return fmt.Errorf("service keyed %s as %s, want %s", j.body, view.Key, j.key)
			}
			pending = append(pending, view.Key)
		}
		for _, key := range pending {
			if job, ok := svc.Job(key); ok {
				<-job.Done()
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		return err
	}
	for i := range d.hot {
		b, err := os.ReadFile(filepath.Join(d.warmDir(), d.hot[i].key+".json"))
		if err != nil {
			return fmt.Errorf("warm cache lacks %s: %w", d.hot[i].body, err)
		}
		d.hot[i].want = sha256.Sum256(b)
	}
	return nil
}

// copyWarm makes a fresh copy of the warm directory for the next
// restart, so that every round starts from the same cache population.
func (d *daemonSweep) copyWarm() error {
	dst := d.roundDir()
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(d.warmDir())
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(d.warmDir(), e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setup is the warm restart: a new service over the copied directory,
// served on a loopback listener, up to its first healthy reply.
func (d *daemonSweep) setup() error {
	t := time.Now()
	svc, err := service.New(d.serviceConfig(d.roundDir()))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return errors.Join(err, svc.Drain(ctx))
	}
	d.svc = svc
	d.srv = &http.Server{Handler: svc.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.transport = &http.Transport{MaxConnsPerHost: d.width, MaxIdleConnsPerHost: d.width}
	d.client = apiv1.NewClient("http://" + ln.Addr().String())
	d.client.HTTP = &http.Client{Transport: d.transport, Timeout: 30 * time.Second}
	// Completion is polled at 1 ms, so a job's measured time is not
	// quantized by the client's default 100 ms poll.
	d.client.Poll = time.Millisecond
	d.backoffs.Store(0)
	d.client.OnBackpressure = func(time.Duration) { d.backoffs.Add(1) }
	for {
		h, err := d.client.Healthz()
		if err == nil && h.Status == "ok" {
			break
		}
		if time.Since(t) > 10*time.Second {
			return fmt.Errorf("daemon not healthy after restart: %v", err)
		}
	}
	d.restart = time.Since(t)
	d.entries = svc.Cache().Len()
	return nil
}

// callers runs len(lat) requests over at most width closed-loop
// callers: each caller sends its next request only after the previous
// one completed. do performs request i; callers times it into lat[i]
// and collects its error.
func (d *daemonSweep) callers(lat []time.Duration, do func(i int) error) {
	n := len(lat)
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for c := 0; c < d.width; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := time.Now()
				err := do(i)
				lat[i] = time.Since(t)
				if err != nil {
					d.failed.Add(1)
					fmt.Fprintln(os.Stderr, "daemon-sweep: request failed:", err)
				}
			}
		}()
	}
	wg.Wait()
}

// flag records failed checks found while the round runs.
func (d *daemonSweep) flag(bad ...string) {
	if len(bad) == 0 {
		return
	}
	d.mu.Lock()
	d.bad = append(d.bad, bad...)
	d.mu.Unlock()
}

func (d *daemonSweep) readVars() (service.Vars, error) {
	var v struct {
		Cbwsd service.Vars `json:"cbwsd"`
	}
	err := d.client.GetJSON(apiv1.PathVars, &v)
	return v.Cbwsd, err
}

func (d *daemonSweep) round(tr *tracer) (roundOut, error) {
	d.failed.Store(0)
	d.bad = nil
	clear(d.sampleOK)
	var err error
	if d.vars[0], err = d.readVars(); err != nil {
		return roundOut{}, err
	}

	// Hot sweep: every request is a submit answered from the cache
	// plus a result fetch that must return the stored bytes.
	hot := tr.start("service.hot_sweep", 0)
	d.callers(d.hotLat, func(i int) error {
		j := &d.hot[d.hotOrder[i]]
		sp := tr.start("apiv1.hot_request", hot.id)
		defer sp.end()
		view, err := d.client.Submit(j.body)
		if err != nil {
			return err
		}
		if view.Status != apiv1.StatusDone || !view.Cached {
			d.flag(fmt.Sprintf("hot submit of %s answered %s (cached %v)", j.body, view.Status, view.Cached))
		}
		got, err := d.client.Result(view.Key)
		if err != nil {
			return err
		}
		if sha256.Sum256(got) != j.want {
			d.flag(fmt.Sprintf("hot result of %s differs from the stored bytes", j.body))
		}
		return nil
	})
	d.hotWall = hot.end()
	if d.vars[1], err = d.readVars(); err != nil {
		return roundOut{}, err
	}

	var heapBefore uint64
	if tr != nil {
		// The cold sweep's spans must not grow the heap it measures.
		tr.reserve(len(d.cold))
		heapBefore = liveHeap()
	}
	// Cold sweep: submit, wait for completion, fetch the record.
	cold := tr.start("service.cold_sweep", 0)
	d.callers(d.coldLat, func(i int) error {
		j := &d.cold[i]
		sp := tr.start("apiv1.cold_job", cold.id)
		defer sp.end()
		view, err := d.client.Submit(j.body)
		if err != nil {
			return err
		}
		if _, err := d.client.WaitDone(view.Key); err != nil {
			return err
		}
		d.coldRes[i], err = d.client.Result(view.Key)
		return err
	})
	coldWall := cold.end()
	if d.vars[2], err = d.readVars(); err != nil {
		return roundOut{}, err
	}
	if tr != nil {
		// The replies check has not yet dropped are the benchmark's.
		var held uint64
		for _, b := range d.coldRes {
			held += uint64(cap(b))
		}
		d.heapPerJob = (float64(liveHeap()) - float64(heapBefore) - float64(held)) / float64(len(d.cold))
		d.inproc = d.inprocHit(tr)
	}
	return roundOut{
		ops:     int64(len(d.hotOrder) + len(d.cold)),
		failed:  d.failed.Load(),
		instr:   uint64(len(d.cold)) * daemonWindow,
		simWall: coldWall,
	}, nil
}

// inprocHit times the hot path without HTTP: Service.Submit answered
// from the cache plus Cache.Get of the stored bytes.
func (d *daemonSweep) inprocHit(tr *tracer) time.Duration {
	sp := tr.start("service.inproc_hits", 0)
	defer sp.end()
	lat := make([]float64, 0, len(d.hotOrder))
	for _, i := range d.hotOrder {
		j := &d.hot[i]
		t := time.Now()
		view, err := d.svc.Submit(j.spec)
		data, ok := d.svc.Cache().Get(view.Key)
		lat = append(lat, float64(time.Since(t).Nanoseconds()))
		if err != nil || !ok || len(data) == 0 {
			d.flag(fmt.Sprintf("in-process hit of %s failed: %v", j.body, err))
		}
	}
	return time.Duration(median(lat))
}

// checkCold checks one cold reply, drops it, and keeps the metrics of
// the seeded sample that check re-simulates.
func (d *daemonSweep) checkCold(i int) []string {
	j := &d.cold[i]
	var rec harness.RunRecord
	err := json.Unmarshal(d.coldRes[i], &rec)
	d.coldRes[i] = nil
	if err != nil {
		return []string{fmt.Sprintf("cold result of %s: %v", j.body, err)}
	}
	var bad []string
	if err := rec.Validate(); err != nil {
		bad = append(bad, fmt.Sprintf("cold result of %s: %v", j.body, err))
	}
	res := sim.Result{Workload: rec.Workload, Prefetcher: rec.Prefetcher, Metrics: rec.Metrics}
	if k, ok := d.slot[i]; ok {
		d.sampleMetrics[k], d.sampleOK[k] = rec.Metrics, true
	}
	return append(bad, checkCell(res, j.spec.Config, d.maxEvent[res.Workload])...)
}

// check adds the checks of the whole round to those flagged during it.
// A failed request is counted by round, not checked here.
func (d *daemonSweep) check() []string {
	bad := append([]string(nil), d.bad...)
	for i, b := range d.coldRes {
		if b != nil {
			bad = append(bad, d.checkCold(i)...)
		}
	}
	if n := d.backoffs.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d submissions were refused with 429", n))
	}
	hotHits := d.vars[1].CacheHits - d.vars[0].CacheHits
	if sims := d.vars[1].JobsSimulated - d.vars[0].JobsSimulated; sims != 0 {
		bad = append(bad, fmt.Sprintf("jobs_simulated grew by %d during the hot sweep", sims))
	}
	if hotHits != int64(len(d.hotOrder)) {
		bad = append(bad, fmt.Sprintf("hot sweep made %d cache hits, want %d", hotHits, len(d.hotOrder)))
	}
	if sims := d.vars[2].JobsSimulated - d.vars[1].JobsSimulated; sims != int64(len(d.cold)) {
		bad = append(bad, fmt.Sprintf("cold sweep simulated %d jobs, want %d", sims, len(d.cold)))
	}
	if d.vars[2].Rejected != 0 || d.vars[2].JobsFailed != 0 {
		bad = append(bad, fmt.Sprintf("daemon rejected %d and failed %d jobs", d.vars[2].Rejected, d.vars[2].JobsFailed))
	}
	// A seeded sample is re-simulated directly, apart from the service.
	d.directDur = d.directDur[:0]
	for k, i := range d.checked {
		if !d.sampleOK[k] {
			continue
		}
		j := d.cold[i]
		wl, _ := workload.ByName(j.spec.Workload)
		pf, err := registry.New(j.spec.Prefetcher)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		t := time.Now()
		res, err := sim.RunContext(context.Background(), j.spec.Config, wl.Make(), pf)
		d.directDur = append(d.directDur, time.Since(t))
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		if res.Metrics != d.sampleMetrics[k] {
			bad = append(bad, fmt.Sprintf("cold result of %s differs from a direct simulation", j.body))
		}
	}
	return bad
}

func (d *daemonSweep) layers(m map[string]metric) {
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, x := range ds {
			out[i] = float64(x.Nanoseconds()) / 1e6
		}
		return out
	}
	cold, hot, direct := ms(d.coldLat), ms(d.hotLat), ms(d.directDur)
	m["service.restart_ms"] = metric{float64(d.restart.Nanoseconds()) / 1e6, "ms"}
	m["service.entries_loaded"] = metric{float64(d.entries), "count"}
	m["service.cold_job_ms.p50"] = metric{percentile(cold, 50), "ms"}
	m["service.cold_job_ms.p95"] = metric{percentile(cold, 95), "ms"}
	m["service.overhead_ms"] = metric{median(cold) - median(direct), "ms"}
	hotP50 := percentile(hot, 50) * 1e3
	m["service.hot_request_us.p50"] = metric{hotP50, "us"}
	m["service.hot_request_us.p99"] = metric{percentile(hot, 99) * 1e3, "us"}
	inproc := float64(d.inproc.Nanoseconds()) / 1e3
	m["service.inproc_hit_us"] = metric{inproc, "us"}
	m["apiv1.http_overhead_us"] = metric{hotP50 - inproc, "us"}
	m["service.retained_kb_per_job"] = metric{d.heapPerJob / 1024, "KB"}
	m["service.jobs_simulated"] = metric{float64(d.vars[2].JobsSimulated), "count"}
	m["service.cache_hits"] = metric{float64(d.vars[2].CacheHits), "count"}
	m["hot_jobs_per_s"] = metric{float64(len(d.hotOrder)) / d.hotWall.Seconds(), "1/s"}
}

// release shuts the listener and drains the daemon, then copies the
// warm directory again for the next restart.
func (d *daemonSweep) release() error {
	if d.svc == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errShut := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errShut = errors.Join(errShut, err)
	}
	errDrain := d.svc.Drain(ctx)
	d.transport.CloseIdleConnections()
	d.svc, d.srv, d.client, d.transport = nil, nil, nil, nil
	if err := errors.Join(errShut, errDrain); err != nil {
		return err
	}
	return d.copyWarm()
}

func (d *daemonSweep) cores() int { return runtime.GOMAXPROCS(0) }
