// Command benchmark is the repository's benchmark of record: gateway-to-receipt
// workloads on a fresh four-node cluster, end-to-end metrics on an untraced
// run and a per-layer ledger on a traced one. See README.md beside this file
// and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload abs-conf-sat -seed 1            one untraced run
//	go run ./benchmark -workload abs-conf-sat -seed 1 -trace 1   one traced run
//	go run ./benchmark -seed 1                                   every workload, untraced then traced
//	go run ./benchmark -aa                                       two sets of ten runs, compared against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
)

const defaultOutDir = "benchmark/out"

func main() {
	name := flag.String("workload", "", "workload to run (all of them when empty)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", defaultSeconds(), "length of the measured portion; an eighth of it runs first as warm-up")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	outDir := flag.String("out", defaultOutDir, "directory for trace files and temporary stores")
	aa := flag.Bool("aa", false, "A/A mode: two sets of ten runs per workload, failing if any end-to-end median moves by more than its bound")
	flag.Parse()

	switch {
	case *aa:
		os.Exit(runAA(*seed, *seconds, *outDir))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// defaultSeconds is run_seconds from BENCHMARK.json when the program runs
// from the repository root, so a bare invocation measures what the driver
// measures.
func defaultSeconds() float64 {
	if spec, err := readSpec(); err == nil && spec.RunSeconds > 0 {
		return float64(spec.RunSeconds)
	}
	return 16
}

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec() (*spec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found; run from the repository root")
}

// childLine is the last line a single-workload run prints.
type childLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a process of its own — peak RSS and the
// metrics registry are per process — and returns its full output and parsed
// last line.
func runChild(workload string, seed int64, seconds float64, trace int, outDir string) ([]byte, *childLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line childLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return out, nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return out, &line, nil
}

// runAll runs every workload untraced, then traced, and prints both reports.
func runAll(seed int64, seconds float64, outDir string) int {
	status := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			out, _, err := runChild(w.name, seed, seconds, trace, outDir)
			os.Stdout.Write(out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
			}
		}
	}
	return status
}
