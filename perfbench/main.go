// Command perfbench is the simulator's end-to-end benchmark. It runs one
// of three workloads for a fixed time, checks every output against a
// computation made apart from the program (or a property the method must
// have), and prints the end-to-end metrics, or with -trace 1 the
// per-layer ladder, as a JSON object on its last line of output.
//
//	go run . -workload golden-fill -seed 1 -seconds 20 -trace 0
//	go run . -steady 5 -workload golden-fill,replay-long,daemon-sweep
//
// It is run from the repository root (run.sh builds it and changes
// there), because golden-fill reads golden/seed.json and all scratch
// files go under .bench_build/.
//
// The seed fixes daemon-sweep's config draw and request order and
// nothing inside the program. golden-fill and replay-long have fixed
// inputs: the seed does not change them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir holds every file the benchmark writes: corpora, result-cache
// directories and span dumps. It is relative to the repository root.
const workDir = ".bench_build/perfbench"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames lists the workloads in the order the steadiness mode
// runs them.
var workloadNames = []string{"golden-fill", "replay-long", "daemon-sweep"}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (comma-separated with -steady)")
		seed    = flag.Int64("seed", 1, "seed for daemon-sweep's config draw and request order (golden-fill and replay-long have fixed inputs)")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds; whole rounds run until it is spent")
		traced  = flag.Int("trace", 0, "1: run the traced per-layer ladder instead of the end-to-end measurement")
		steady  = flag.Int("steady", 0, "run each named workload this many times in child processes, alternating order, and print the spread of every end-to-end metric")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(strings.Split(*name, ","), *steady, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if !known(*name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *name != "daemon-sweep" {
		fmt.Printf("%s has fixed inputs: -seed %d does not change them\n", *name, *seed)
	}
	budget := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(*name, *seed)
	} else {
		res, err = runMeasured(*name, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// newWorkload builds the named workload for one run.
func newWorkload(name string, seed int64) workloadRun {
	switch name {
	case "golden-fill":
		return &goldenFill{obsDir: filepath.Join(workDir, "records")}
	case "replay-long":
		return &replayLong{dir: filepath.Join(workDir, "replay")}
	default:
		return &daemonSweep{seed: seed, dir: filepath.Join(workDir, "daemon")}
	}
}

// printResult writes every metric as a readable line, then the JSON
// object as the last line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v (GOMAXPROCS %d)\n",
		res.Attempted, res.Failed, res.Correct, runtime.GOMAXPROCS(0))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
