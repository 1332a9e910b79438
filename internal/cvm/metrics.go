package cvm

import "confide/internal/metrics"

// Process-wide VM counters. Instructions retired are approximated by gas
// consumed (every instruction costs ≥1 gas; host calls charge a fixed
// surcharge), accumulated once per Run so the interpreter hot loop stays
// untouched.
var (
	mInstructions = metrics.Default().Counter("confide_cvm_instructions_total", "VM instructions retired (gas consumed)")
	mRuns         = metrics.Default().Counter("confide_cvm_runs_total", "contract invocations executed")
	mHostCalls    = metrics.Default().Counter("confide_cvm_host_calls_total", "host functions invoked from contract code")
	mCacheHits    = metrics.Default().Counter("confide_cvm_code_cache_hits_total", "code cache lookups served without a rebuild")
	mCacheMisses  = metrics.Default().Counter("confide_cvm_code_cache_misses_total", "code cache lookups that rebuilt the program")
	mCompiledHits = metrics.Default().Counter("confide_cvm_code_cache_compiled_hits_total", "code cache hits that also carried a compiled unit")
)

// RecordRunStart and RecordRunEnd let the compiled runtime feed the same
// process-wide run/instruction counters as the interpreter, keeping
// aggregate VM telemetry comparable across execution tiers.
func RecordRunStart()             { mRuns.Inc() }
func RecordRunEnd(gasUsed uint64) { mInstructions.Add(gasUsed) }
