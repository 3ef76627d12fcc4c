GO ?= go

.PHONY: all build test race vet bench bench-eta chaos-smoke serving-smoke crash-smoke elision-smoke fuzz-smoke

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the full suite (η scenarios + view-latency microbenchmarks)
# and writes BENCH_<date>.json for the cross-PR perf trajectory.
bench:
	$(GO) run ./cmd/serethbench

# bench-eta reproduces the paper's Figure-2/ablation numbers via go test
# (the shared η table in internal/scenarios).
bench-eta:
	$(GO) test -run '^$$' -bench 'BenchmarkEta|BenchmarkSequential' -benchtime 1x .

# chaos-smoke runs the fault-injection determinism/convergence tests and
# a short churn+partition sweep under the race detector.
chaos-smoke:
	$(GO) test -race -run 'TestChaosConcurrent|TestChaosTraceDeterministic|TestPartitionHealConverges|TestChurnRejoinCatchUp' ./internal/sim
	$(GO) run -race ./cmd/serethsim -experiment chaos -quick -runs 2 -churn -partition

# crash-smoke runs the crash-consistency suite under the race detector:
# storage fault injection and salvage, the chain-level crash-point and
# bit-flip recovery sweeps (-short: 3 seeds per point), snapshot
# corruption rejection, the hardened RPC surface, and the sim crash
# scenario family against its honest twins, ending with a quick
# end-to-end crash experiment.
crash-smoke:
	$(GO) test -race ./internal/store
	$(GO) test -race -short -run 'TestCrash|TestBitFlip|TestOpenFallsBack|TestInjectedWriteFailure|TestOpenSnapshot' ./internal/chain
	$(GO) test -race -run 'TestPanic|TestMaxInFlight|TestShed|TestShutdown|TestHealth' ./internal/rpc
	$(GO) test -race -run 'TestCrash' ./internal/sim
	$(GO) run -race ./cmd/serethsim -experiment crash -quick -runs 2

# elision-smoke runs the SHA3-elision suite under the race detector:
# the keccak invocation-counter contract, the hinted/memoized jump
# table differentials and fuzz seed corpus against the raw CallGeneric
# reference, the zero-keccak frozen-instance admission and batch-id
# assertions, the one-allocation pool admission pin, the block-hash
# memo's stale-header checks and zero-keccak Nth import, and the golden
# counter-pinned replay drop with bit-identical receipts.
elision-smoke:
	$(GO) test -race -run 'TestInvocations' ./internal/keccak
	$(GO) test -race -run 'TestSha3|TestJumpTableMatchesGeneric|FuzzInterpreter' ./internal/evm
	$(GO) test -race -run 'TestAdmitAdoptsFrozenInstance|TestNthPoolAdmissionZeroKeccak|TestAdmitAllocsOnePendingPerSender|TestVerifiedFlagDoesNotSurviveTamper' ./internal/txpool
	$(GO) test -race -run 'TestBatchID|TestBroadcastTxsHashCount' ./internal/p2p
	$(GO) test -race -run 'TestBlockHash' ./internal/types
	$(GO) test -race -run 'TestNthImportZeroKeccak' ./internal/chain
	$(GO) test -race -run 'TestReplayKeccakCountDrop' ./internal/scenarios

# fuzz-smoke fuzzes the RLP item decoder and the block decoder built on
# it (gossip, sync and the on-disk log all go through both) and then the
# transaction decoder (the eth_sendRawTransaction path) for 10 s each,
# starting from their committed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/rlp
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 10s ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTransaction$$' -fuzztime 10s ./internal/types

# serving-smoke runs the persistence and serving-tier suite under the
# race detector: the store, trie/state persistence and snapshot
# round-trips, restart-recovery and snapshot-bootstrap at chain and
# node level, the RPC dispatch/client surface, and the golden-scenario
# differentials with the store and the HTTP serving tier enabled.
serving-smoke:
	$(GO) test -race ./internal/store ./internal/rpc
	$(GO) test -race -run 'TestPersist|TestSnapshot|TestOpen|TestGoldenRootsWithStore' ./internal/trie ./internal/statedb ./internal/chain
	$(GO) test -race -run 'TestNodeRestart|TestSnapshot' ./internal/node
	$(GO) test -race -run 'TestRPCClients|TestPersist' ./internal/sim ./internal/scenarios
