// Command perfbench is the repository's benchmark: four workloads that
// each put a number on the end-to-end cost of one way DimmWitted is
// used, plus a traced mode that splits those numbers by layer.
//
//	perfbench -workload train-sparse -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines carry the host
// record and the sample counts behind each metric. See README.md for the
// workloads, the metric table and the measured spreads; run.sh builds
// the binaries and runs this command from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every input so a whole workload runs in a few
	// seconds; the self-test uses it.
	small   bool
	root    string
	dwserve string
	out     string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"train-sparse":  runTrainSparse,
	"gibbs":         runGibbs,
	"serve-predict": runServePredict,
	"serve-online":  runServeOnline,
}

// deadline bounds a whole invocation: a run that has not finished by
// then stops its child processes and exits non-zero.
const deadline = 170 * time.Second

func main() {
	var cfg config
	var traceFlag int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: train-sparse, gibbs, serve-predict, serve-online")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.small, "small", false, "shrink every input (for checking the benchmark itself)")
	flag.StringVar(&cfg.root, "root", ".", "repository root (for the host record's source digest)")
	flag.StringVar(&cfg.dwserve, "dwserve", "", "path to a dwserve binary built from the tree (serve-* workloads)")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span files")
	flag.BoolVar(&selftest, "selftest", false, "run every workload briefly, twice, and check the printed metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1

	timer := time.AfterFunc(deadline, func() {
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; stopped\n", deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	if selftest {
		if err := runSelfTest(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: self-test failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: self-test passed")
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		os.Exit(2)
	}
	b := newBench(cfg)
	host := hostRecord(cfg)
	printLine("host", host)
	if err := run(b); err != nil {
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := b.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		path, err := b.spans.write(cfg.out, cfg.workload, cfg.seed, host)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printLine prints a labelled JSON value on its own stdout line.
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

// host describes the machine and source a run measured.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the tree is a git checkout, else
	// "tree-" plus a digest of the tree's Go sources.
	Commit string `json:"commit"`
	OS     string `json:"os"`
	Arch   string `json:"arch"`
}

func hostRecord(cfg config) host {
	return host{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceCommit(cfg.root),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}
