package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"confide/internal/metrics"
)

// Machine-readable experiment output: `-json` writes one BENCH_<exp>.json
// per experiment, carrying the machine and build it ran on, the
// experiment's own rows (TPS etc.) and the latency percentiles the registry
// histograms accumulated during the run — end-to-end pipeline latency,
// per-stage breakdown, and the checkpoint / snapshot fast-sync timings when
// those paths ran.

// latencySummary reduces one histogram family to report form.
type latencySummary struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// benchDoc is the top-level BENCH_<exp>.json document.
type benchDoc struct {
	Experiment     string  `json:"experiment"`
	GeneratedAt    string  `json:"generated_at"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Env is the machine and build the numbers came from.
	Env benchEnv `json:"env"`
	// Rows is the experiment's native result set (workload/engine/TPS rows
	// for the figures, operation profiles for the tables).
	Rows any `json:"rows"`
	// PipelineLatency summarizes confide_pipeline_total_seconds: the
	// seal→preverify→order→execute→commit end-to-end time per transaction.
	PipelineLatency *latencySummary `json:"pipeline_latency,omitempty"`
	// StageLatency breaks the pipeline down per stage.
	StageLatency map[string]latencySummary `json:"stage_latency,omitempty"`
	// CheckpointExport / SnapshotSync summarize the fast-sync subsystem:
	// time to export a sealed checkpoint and manifest-request-to-install
	// time of snapshot joins (present only when checkpoints ran).
	CheckpointExport *latencySummary `json:"checkpoint_export,omitempty"`
	SnapshotSync     *latencySummary `json:"snapshot_sync,omitempty"`
}

// benchEnv stamps a BENCH file with what its figures depend on besides the
// code: core count, scheduler width, toolchain and the commit built.
type benchEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// VCSRevision is the commit the binary was built from, "+dirty" when the
	// tree had uncommitted changes; "unknown" under `go run`, which does not
	// stamp — build the binary to record it.
	VCSRevision string `json:"vcs_revision"`
}

func currentEnv() benchEnv {
	env := benchEnv{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.VCSRevision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && env.VCSRevision != "unknown" {
			env.VCSRevision += "+dirty"
		}
	}
	return env
}

// familyLatency merges every series of a histogram family (bucket-wise; all
// series of a family share bounds) and summarizes it. Nil when the family
// never observed anything.
func familyLatency(snap metrics.Snapshot, family string) *latencySummary {
	var merged metrics.HistogramSnapshot
	for series, h := range snap.Histograms {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if name != family || h.Count == 0 {
			continue
		}
		if merged.Buckets == nil {
			merged.Bounds = h.Bounds
			merged.Buckets = append([]uint64(nil), h.Buckets...)
			merged.Count, merged.Sum = h.Count, h.Sum
			continue
		}
		for i := range h.Buckets {
			merged.Buckets[i] += h.Buckets[i]
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
	}
	if merged.Count == 0 {
		return nil
	}
	return &latencySummary{
		Count: merged.Count,
		P50Ms: merged.Quantile(0.50) * 1e3,
		P95Ms: merged.Quantile(0.95) * 1e3,
		P99Ms: merged.Quantile(0.99) * 1e3,
	}
}

// stageLatencies summarizes each stage series of the pipeline tracer.
func stageLatencies(snap metrics.Snapshot) map[string]latencySummary {
	out := make(map[string]latencySummary)
	for series, h := range snap.Histograms {
		if !strings.HasPrefix(series, "confide_pipeline_stage_seconds{") || h.Count == 0 {
			continue
		}
		stage := series[strings.IndexByte(series, '"')+1:]
		stage = stage[:strings.IndexByte(stage, '"')]
		out[stage] = latencySummary{
			Count: h.Count,
			P50Ms: h.Quantile(0.50) * 1e3,
			P95Ms: h.Quantile(0.95) * 1e3,
			P99Ms: h.Quantile(0.99) * 1e3,
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// writeBenchJSON emits BENCH_<exp>.json into the working directory.
func writeBenchJSON(exp string, rows any, elapsed time.Duration) error {
	snap := metrics.Default().Snapshot()
	doc := benchDoc{
		Experiment:       exp,
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		ElapsedSeconds:   elapsed.Seconds(),
		Env:              currentEnv(),
		Rows:             rows,
		PipelineLatency:  familyLatency(snap, "confide_pipeline_total_seconds"),
		StageLatency:     stageLatencies(snap),
		CheckpointExport: familyLatency(snap, "confide_node_checkpoint_export_seconds"),
		SnapshotSync:     familyLatency(snap, "confide_node_snapshot_sync_seconds"),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", exp)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
