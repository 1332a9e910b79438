GO ?= go
FUZZTIME ?= 10s
# Appended to every drill of `make chaos` and `make crash`; CI passes -metrics.
DRILLFLAGS ?=

.PHONY: build test race vet chaos crash bench bench-record fuzz overhead loc all

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Concurrency hot spots under the race detector: the transaction's cached
# encoding and hash, consensus liveness, fault injection, the node layer, and
# the lock-free metrics registry feeding all of them.
race:
	$(GO) test -race ./internal/chain/... ./internal/consensus/... ./internal/node/... ./internal/p2p/... ./internal/metrics/... ./internal/bench/... ./internal/storage/... ./internal/gateway/... ./internal/cvm/... ./internal/pipeline/... ./internal/core/... ./internal/chaos/...

# gofmt -l prints the files it would rewrite; any name is a failure.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# Seeded chaos drill: message loss, a leader crash/restart and a
# partition/heal, ending in verified convergence certified against the
# metrics registry. The second run adds a wipe-and-rejoin fault, which must
# recover through snapshot fast-sync; the third orders a key-epoch rotation
# mid-faults, certified from the keyepoch registry deltas; the fourth
# routes the whole workload through the HTTP gateways and kills two of
# them mid-run, certified from the gateway registry deltas; the fifth runs
# the same fault schedule with pipelined block production (depth 8, four
# OCC lanes), so leader kills land while several proposals are in flight.
chaos:
	$(GO) run ./cmd/benchrunner -chaos -seed 1 $(DRILLFLAGS)
	$(GO) run ./cmd/benchrunner -chaos -seed 1 -wipe 1 $(DRILLFLAGS)
	$(GO) run ./cmd/benchrunner -chaos -seed 1 -rotations 1 $(DRILLFLAGS)
	$(GO) run ./cmd/benchrunner -chaos -seed 1 -gwkills 2 $(DRILLFLAGS)
	$(GO) run ./cmd/benchrunner -chaos -seed 1 -pipeline-depth 8 -exec-workers 4 $(DRILLFLAGS)

# Seeded crash drill: power-cut nodes at named storage crash points under
# live traffic, with transient disk faults (ENOSPC, EIO, bit-flips, lying
# fsyncs) layered onto each crash window. Certifies no committed transaction
# lost, identical chain prefixes, every crash recovered (quarantine-and-
# fast-sync when the image is corrupt beyond the WAL), and every sealed
# record re-verified through the engine's AEAD after recovery. The second run
# keeps the disk clean but widens the window (depth 8, four OCC lanes), so
# crash points fire with several delivered blocks queued behind execution.
crash:
	$(GO) run ./cmd/benchrunner -chaos -seed 1 -crashes 3 -diskfaults $(DRILLFLAGS)
	$(GO) run ./cmd/benchrunner -chaos -seed 2 -crashes 2 -pipeline-depth 8 -exec-workers 4 $(DRILLFLAGS)

bench:
	$(GO) run ./cmd/benchrunner -exp all -quick

# The benchmark of record (BENCHMARK.json): every workload untraced then
# traced, each in a process of its own. A run that fails its correctness
# gate exits non-zero.
bench-record:
	bash benchmark/run.sh -seed 1

# Native fuzzing over the attack-surface decoders: RLP/wire formats (and the
# one-pass RLP encoder against a two-buffer reference), the CCLE codec and
# schema parser, envelope and block-attestation opening, the engine's two
# callers of the pre-processor steps against each other, the disclosure
# receipt a gateway hands the client, and the gateway's HTTP request decode
# path. One target per invocation is a go tool limitation.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzRLPDecode -fuzztime=$(FUZZTIME) ./internal/chain/
	$(GO) test -run='^$$' -fuzz=FuzzWireDecoders -fuzztime=$(FUZZTIME) ./internal/chain/
	$(GO) test -run='^$$' -fuzz=FuzzEncodeMatchesReference -fuzztime=$(FUZZTIME) ./internal/chain/
	$(GO) test -run='^$$' -fuzz=FuzzCodecDecode -fuzztime=$(FUZZTIME) ./internal/ccle/
	$(GO) test -run='^$$' -fuzz=FuzzParseSchema -fuzztime=$(FUZZTIME) ./internal/ccle/
	$(GO) test -run='^$$' -fuzz=FuzzOpenAttestation -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzPreVerifyAgreesWithExecute -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzOpenEnvelope -fuzztime=$(FUZZTIME) ./internal/crypto/
	$(GO) test -run='^$$' -fuzz=FuzzOpenAEAD -fuzztime=$(FUZZTIME) ./internal/crypto/
	$(GO) test -run='^$$' -fuzz=FuzzEpochHeader -fuzztime=$(FUZZTIME) ./internal/keyepoch/
	$(GO) test -run='^$$' -fuzz=FuzzGatewayRequest -fuzztime=$(FUZZTIME) ./internal/gateway/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/storage/
	$(GO) test -run='^$$' -fuzz=FuzzDisclosureReceipt -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzCompiledVsInterp -fuzztime=$(FUZZTIME) ./internal/cvm/compile/
	$(GO) test -run='^$$' -fuzz=FuzzScheduler -fuzztime=$(FUZZTIME) ./internal/pipeline/

# Instrumented-vs-disabled throughput delta (budget: <2%).
overhead:
	$(GO) run ./cmd/benchrunner -exp overhead

# Lines of non-test Go outside benchmark/: the size figure simplicity PRs quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
