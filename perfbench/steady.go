package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs each workload k times, each run in a child process
// with the next seed, reversing the workload order on every other pass,
// and prints the median, quartiles and relative spread (IQR over the
// median) of every end-to-end metric, plus the failed share.
func runSteady(names []string, k int, seed int64, seconds int) error {
	for _, n := range names {
		if !known(n) {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runs := map[string][]*result{}
	for i := 0; i < k; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, n := range order {
			s := seed + int64(i)
			res, err := runChild(self, n, s, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", n, s, err)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s seed %d: correct %v attempted %d failed %d\n",
				i+1, k, n, s, res.Correct, res.Attempted, res.Failed)
			runs[n] = append(runs[n], res)
		}
	}
	fmt.Printf("%-14s %-18s %12s %12s %12s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "runs")
	for _, n := range names {
		var metricNames []string
		for name := range runs[n][0].Metrics {
			metricNames = append(metricNames, name)
		}
		sort.Strings(metricNames)
		for _, name := range metricNames {
			var xs []float64
			for _, r := range runs[n] {
				xs = append(xs, r.Metrics[name].Value)
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			fmt.Printf("%-14s %-18s %12.5g %12.5g %12.5g %7.2f%%  %.4g\n", n, name, med, q1, q3, (q3-q1)/med*100, xs)
		}
		var failed, attempted int64
		correct := true
		for _, r := range runs[n] {
			failed += r.Failed
			attempted += r.Attempted
			correct = correct && r.Correct
		}
		fmt.Printf("%-14s %d runs, correct %v, failed %d of %d attempted\n", n, len(runs[n]), correct, failed, attempted)
	}
	return nil
}

// runChild runs one untraced benchmark run and parses its last line.
func runChild(self, name string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parsing the last line of output: %w", err)
	}
	return &res, nil
}
