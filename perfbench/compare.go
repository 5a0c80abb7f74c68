package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runFile is one saved run: its header and its result line.
type runFile struct {
	workload string
	seed     uint64
	res      result
}

// readRun parses a saved run's standard output: the
// "perfbench workload=… seed=… seconds=… trace=…" header and the JSON
// last line. Traced runs are skipped.
func readRun(r io.Reader) (*runFile, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rf runFile
	trace, last := -1, ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "perfbench workload=") {
			var secs int
			if _, err := fmt.Sscanf(line, "perfbench workload=%s seed=%d seconds=%d trace=%d", &rf.workload, &rf.seed, &secs, &trace); err != nil {
				return nil, false, fmt.Errorf("bad header %q: %w", line, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	if trace != 0 {
		return nil, false, nil
	}
	if err := json.Unmarshal([]byte(last), &rf.res); err != nil {
		return nil, false, fmt.Errorf("last line is not a result: %w", err)
	}
	return &rf, true, nil
}

// readRuns loads every untraced run saved in dir.
func readRuns(dir string) ([]*runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*runFile
	for _, en := range entries {
		if en.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, en.Name()))
		if err != nil {
			return nil, err
		}
		rf, ok, err := readRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", en.Name(), err)
		}
		if ok {
			out = append(out, rf)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced runs", dir)
	}
	return out, nil
}

// verdict applies the rule for small sandboxes: a gain needs the change
// to win nine tenths of the pairs and the medians to differ by more than
// the parent's own quartile spread; a loss is a median worse by more
// than the bound; a spread wider than the bound is unresolved unless
// every change run beats every parent run.
func verdict(parent, change []float64, pairs [][2]float64, lowerBetter bool, bound float64) (won int, v string) {
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	for _, pr := range pairs {
		if better(pr[1], pr[0]) {
			won++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	spread := pq3 - pq1
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := (cm - pm) / math.Abs(pm)
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case len(pairs) > 0 && float64(won) >= 0.9*float64(len(pairs)) && math.Abs(cm-pm) > spread && better(cm, pm):
		return won, "improved"
	case spread/math.Abs(pm) > bound && !allBetter:
		return won, "unresolved"
	case worse > bound:
		return won, "worse"
	default:
		return won, "within bound"
	}
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of saved runs of the parent commit")
	changeDir := fs.String("change", "", "directory of saved runs of the change")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return errors.New("need -parent and -change directories")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	parent, err := readRuns(*parentDir)
	if err != nil {
		return err
	}
	change, err := readRuns(*changeDir)
	if err != nil {
		return err
	}
	writeComparison(os.Stdout, spec, parent, change)
	return nil
}

func writeComparison(w io.Writer, spec *benchSpec, parent, change []*runFile) {
	fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %-7s %s\n", "workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "won", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			pv, cv, pairs := values(parent, change, wl.Name, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "%-13s %-16s no runs on one side\n", wl.Name, m.Name)
				continue
			}
			won, v := verdict(pv, cv, pairs, m.Better == "lower", m.Bound)
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %-7s %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", pm, pq1, pq3, len(pv)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", cm, cq1, cq3, len(cv)),
				fmt.Sprintf("%d/%d", won, len(pairs)), v)
		}
	}
}

// values gathers one metric on one workload from both sides, pairing
// runs of the same seed.
func values(parent, change []*runFile, workload, metric string) (pv, cv []float64, pairs [][2]float64) {
	bySeed := map[uint64]float64{}
	for _, r := range parent {
		if m, ok := r.res.Metrics[metric]; ok && r.workload == workload {
			pv = append(pv, m.Value)
			bySeed[r.seed] = m.Value
		}
	}
	for _, r := range change {
		if m, ok := r.res.Metrics[metric]; ok && r.workload == workload {
			cv = append(cv, m.Value)
			if p, ok := bySeed[r.seed]; ok {
				pairs = append(pairs, [2]float64{p, m.Value})
			}
		}
	}
	return pv, cv, pairs
}
