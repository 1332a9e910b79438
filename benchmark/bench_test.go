package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// smokeSeconds is a sixty-fourth of the contract's run, through the same code.
const smokeSeconds = 0.25

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// bounds is the share of the parent's median by which each end-to-end metric
// may worsen before a change is refused, as README.md ("Bounds") argues them;
// BENCHMARK.json must say the same.
var bounds = map[string]float64{
	"committed_tps":  0.15,
	"commit_p50_ms":  0.25,
	"receipt_p50_ms": 0.25,
	"cpu_us_per_tx":  0.15,
	"peak_rss_mb":    0.20,
	"setup_s":        0.25,
}

func TestSpecMatchesProgram(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, sp.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program %d", kind, len(spec), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s metric %q [%q]: name or unit outside the allowed characters", kind, d.name, d.unit)
			}
			if spec[i].Better != "higher" && spec[i].Better != "lower" {
				t.Errorf("%s metric %s: better is %q", kind, d.name, spec[i].Better)
			}
			if seen[d.name] {
				t.Errorf("metric %s named twice", d.name)
			}
			seen[d.name] = true
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
	for _, m := range sp.EndToEnd {
		if m.Bound != bounds[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v, want %v (and within (0, 0.25])", m.Name, m.Bound, bounds[m.Name])
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(runConfig{w: w, seed: 7, seconds: smokeSeconds, trace: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Fatalf("%s: correctness gate failed: %v", w.name, res.Errors)
		}
		if res.Submitted == 0 || res.Failed != 0 {
			t.Errorf("%s: submitted %d, failed %d", w.name, res.Submitted, res.Failed)
		}
		// One traced run holds both sets of figures; print it both ways.
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var out bytes.Buffer
			res.print(&out)
			checkReport(t, w.name, out.String(), defs)
		}
	}
}

// checkReport asserts that every metric is printed exactly once by name with
// its unit, and that the last line is the result object with exactly the
// contract's keys and a finite value for every metric.
func checkReport(t *testing.T, workload, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, d := range defs {
		n := 0
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 3 && f[0] == d.name && f[2] == d.unit {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: metric %s [%s] printed %d times", workload, d.name, d.unit, n)
		}
	}
	if !strings.Contains(out, "correctness gate passed") {
		t.Errorf("%s: the correctness gate did not report", workload)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(line) != 4 {
		t.Errorf("%s: result object has %d keys, want correct, attempted, failed, metrics", workload, len(line))
	}
	var parsed childLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Correct || parsed.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d", workload, parsed.Correct, parsed.Attempted)
	}
	if len(parsed.Metrics) != len(defs) {
		t.Errorf("%s: result object has %d metrics, want %d", workload, len(parsed.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := parsed.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s missing, wrong unit or not finite: %+v", workload, d.name, m)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a := generateInputs(w, 1, 512, 64)
		b := generateInputs(w, 1, 512, 64)
		c := generateInputs(w, 2, 512, 64)
		if a.digest != b.digest {
			t.Errorf("%s: the same seed gave different plaintext inputs", w.name)
		}
		for i := range a.calls {
			if a.calls[i].client != b.calls[i].client || !bytes.Equal(a.calls[i].args[0], b.calls[i].args[0]) {
				t.Fatalf("%s: call %d differs under the same seed", w.name, i)
			}
		}
		if a.digest == c.digest {
			t.Errorf("%s: different seeds gave the same plaintext inputs", w.name)
		}
	}
}
