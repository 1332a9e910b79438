package main

// A/A mode: the same binary measured twice. Two sets of aaRepeats runs, each
// run with a seed of its own, judged the way a later change will be judged
// against this one: for every end-to-end metric on every workload, the spread
// of a set (quartile distance over median) must stay within the metric's
// bound, and the second set's median may not be worse than the first's by
// more than the bound. The two sets run as alternating pairs (A B, B A, ...),
// the protocol a parent-against-change comparison follows, so that a drift of
// the machine over the minutes a set takes lands on both sides alike.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)+1)
		j := min(max(int(math.Floor(pos)), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// aaRepeats is the number of runs in a set: what the contract's judgement of
// a spread and of a median rests on.
const aaRepeats = 10

func runAA(seed int64, seconds float64, outDir string) int {
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("A/A: 2 sets x %d runs x %d workloads in alternating pairs, %.0f s measured each; seeds %d.. and %d..\n",
		aaRepeats, len(workloads), seconds, seed, seed+1000)
	env, _ := json.Marshal(environment())
	fmt.Printf("environment: %s\n", env)

	// values[set][workload][metric] = one value per run
	values := [2]map[string]map[string][]float64{{}, {}}
	flagged := map[string]int{}
	for _, w := range workloads {
		values[0][w.name] = map[string][]float64{}
		values[1][w.name] = map[string][]float64{}
		for i := 0; i < aaRepeats; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // A first in even pairs, B first in odd ones
				runSeed := seed + int64(set*1000+i)
				out, line, err := runChild(w.name, runSeed, seconds, 0, outDir)
				if err != nil {
					os.Stdout.Write(out)
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if line.Failed > 0 {
					flagged[w.name+": failed operations"] += line.Failed
				}
				for _, f := range []string{"disturbed: true", "generator_bound: true"} {
					if bytes.Contains(out, []byte(f)) {
						flagged[w.name+": "+f]++
					}
				}
				fmt.Printf("run %s %c seed %d:", w.name, 'A'+set, runSeed)
				for _, md := range sp.EndToEnd {
					v := line.Metrics[md.Name].Value
					values[set][w.name][md.Name] = append(values[set][w.name][md.Name], v)
					fmt.Printf(" %s=%.4f", md.Name, v)
				}
				fmt.Println()
				// The run's speed line is the evidence that the scaled
				// figures hold still while the machine does not.
				for _, l := range bytes.Split(out, []byte("\n")) {
					if bytes.HasPrefix(l, []byte("speed: ")) {
						fmt.Printf("    %s\n", l)
					}
				}
			}
		}
	}

	fmt.Printf("%-18s %-16s %12s %12s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	status := 0
	for _, w := range workloads {
		for _, md := range sp.EndToEnd {
			a, b := values[0][w.name][md.Name], values[1][w.name][md.Name]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if md.Better == "higher" {
				worse = -worse
			}
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return ratio(q3-q1, median(xs))
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > md.Bound {
				verdict = "MEDIAN MOVED"
				status = 1
			}
			if md.Name != "setup_s" && (sa > md.Bound || sb > md.Bound) {
				verdict = "SPREAD TOO WIDE"
				status = 1
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f %+8.2f%% %8.2f%% %8.2f%% %6.0f%%  %s\n",
				w.name, md.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sa, 100*sb, 100*md.Bound, verdict)
		}
	}
	keys := make([]string, 0, len(flagged))
	for k := range flagged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("flagged: %s in %d run(s)\n", k, flagged[k])
	}
	if status == 0 {
		fmt.Println("A/A passed: every end-to-end metric agrees with itself within its bound")
	} else {
		fmt.Println("A/A FAILED: lengthen the run or loosen the bound in BENCHMARK.json")
	}
	return status
}
