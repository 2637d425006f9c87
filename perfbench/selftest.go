package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelfTest runs every workload at the small size, plain and traced,
// then plain again on a second seed, and checks that each run exits 0,
// passes its correctness checks and prints every metric BENCHMARK.json
// names, with that unit.
func runSelfTest(cfg config) error {
	raw, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := checkTables(spec); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type run struct {
		workload string
		seed     int64
		trace    int
	}
	var runs []run
	for _, w := range spec.Workloads {
		runs = append(runs, run{w.Name, 1, 0}, run{w.Name, 1, 1})
	}
	for _, w := range spec.Workloads {
		runs = append(runs, run{w.Name, 2, 0})
	}
	for _, r := range runs {
		args := []string{"-root", cfg.root, "-dwserve", cfg.dwserve, "-out", cfg.out, "-small",
			"-workload", r.workload, "-seed", strconv.FormatInt(r.seed, 10), "-seconds", "1",
			"-trace", strconv.Itoa(r.trace)}
		cmd := exec.Command(self, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		trackChild(cmd, true)
		err := cmd.Run()
		trackChild(cmd, false)
		name := fmt.Sprintf("%s seed %d trace %d", r.workload, r.seed, r.trace)
		if err != nil {
			return fmt.Errorf("%s: %v: %s", name, err, stderr.String())
		}
		res, err := lastResult(stdout.String())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		want := spec.EndToEnd
		if r.trace == 1 {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			return fmt.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s: metric %s missing", name, m.Name)
			}
			if got.Unit != m.Unit {
				return fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			return fmt.Errorf("%s: correct=%v attempted=%d failed=%d: %s", name, res.Correct, res.Attempted, res.Failed, stderr.String())
		}
		if !strings.Contains(stdout.String(), `"gomaxprocs"`) {
			return fmt.Errorf("%s: no host record printed", name)
		}
		fmt.Printf("ok  %s: %d metrics, %d ops\n", name, len(res.Metrics), res.Attempted)
	}
	return nil
}

// checkTables checks that BENCHMARK.json and this program list the same
// metrics with the same units.
func checkTables(spec benchmarkSpec) error {
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		return fmt.Errorf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range spec.EndToEnd {
		if u := unitOf(endToEnd, m.Name); u != m.Unit {
			return fmt.Errorf("end-to-end metric %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, u)
		}
	}
	for _, m := range spec.PerLayer {
		if u := unitOf(perLayer, m.Name); u != m.Unit {
			return fmt.Errorf("per-layer metric %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, u)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	return nil
}

// lastResult parses the result object on the last line of out.
func lastResult(out string) (result, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
