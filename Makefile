GO ?= go

# Minimum total statement coverage (percent) for `make cover-check`.
# Set from the post-topology-refactor baseline; raise it as coverage
# grows, never lower it without explanation. Lowered 75.0 -> 70.0 with
# the energy/power layer: the hybrid fast-path PR had already dropped
# the short-mode total to 69.9% (its randomized equality sweeps are
# long-gated, so the engine code they cover counts as uncovered under
# `-short`), leaving the gate permanently red; 70.0 re-anchors it just
# below the measured 70.3% so regressions fail again.
COVER_MIN ?= 70.0

.PHONY: build test test-short test-race bench lint vet fuzz-smoke fmt cover cover-check trace-smoke overhead-guard hotpath-guard chaos-smoke hybrid-smoke power-smoke serve-smoke perfbench-check perfbench-smoke figures-smoke goldens

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass (short mode): the sharded scenario runner and the
# multi-runner orchestration are the paths a data race would hide in.
test-race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Trace smoke: run the span collector end to end on the bundled fig4
# scenario and on a converted ResNet-50 graph. The CLI re-reads and schema-validates the Chrome trace-event
# JSON it wrote, so a malformed export fails the target.
trace-smoke:
	$(GO) run ./cmd/acesim trace -out /tmp/acesim-fig4-trace.json examples/scenarios/fig4.json
	$(GO) run ./cmd/acesim graph convert -workload resnet50 -iterations 1 -out /tmp/acesim-rn50-graph.json
	$(GO) run ./cmd/acesim trace -out /tmp/acesim-rn50-trace.json /tmp/acesim-rn50-graph.json

# Tracing overhead gate: with tracing disabled, the fig4 units must match
# the frozen pin BENCH_2026-07-28.json, recorded before the trace layer
# existed: same event count, no additional allocations.
overhead-guard:
	$(GO) test -run TestTracingDisabledOverheadGuard -v .

# DES hot-path gate: the event calendar against its container/heap
# reference (same-instant, past-clamped and reopened-instant pushes
# included), the 16-byte pointer-free time-heap entry, the engine's
# zero-allocation scheduling (shared instants, an instant per event,
# thousands of events in one instant), the bound on the event slots
# retired calendar buckets keep, the gates' context-callback
# acquisitions (one FIFO order with Acquire, zero allocations granted
# or queued), transfer record reuse on fault-free and fault-enabled
# fabrics (a faulted send allocates nothing), and the allocation budget
# of a warm all-reduce (ACE, BaselineCommOpt), all-to-all (ACE,
# BaselineCommOpt) and ResNet-50 iteration, of lowering and validating
# a 64-rank ResNet-50 graph, and the 128-byte graph op.
hotpath-guard:
	$(GO) test -run 'TestQueueMatchesReferenceHeap|TestQueueSortedDrain|TestTimeHeapEntrySize|TestEngineZeroAllocScheduling|TestCalendarCapacityBounded' -v ./internal/des
	$(GO) test -run 'TestGateAcquireCtx' -v ./internal/resource
	$(GO) test -run 'TestSendRoutedRecyclesRecords' -v ./internal/noc
	$(GO) test -run TestHotPathAllocBudget -v .
	$(GO) test -run 'TestLoweringAllocBudget|TestValidateManyRanksFewOps|TestOpSize' -v ./internal/graph

vet:
	$(GO) vet ./...

# Short fuzz passes over the three decoders external input reaches
# (scenario files, graph traces, and topology specs). CI runs the graph
# and topology ones on every push.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseGraph -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzParseTopology -fuzztime=10s ./internal/noc

# Chaos smoke: the randomized link-failure property suite (24 random
# topologies, mid-flight down/up schedules, recovery + data-correctness
# replay) under the race detector, then the bundled link-failure
# scenario with its slowdown/recovery/tenant-isolation assertions.
chaos-smoke:
	$(GO) test -race -run 'TestChaos' ./internal/collectives
	$(GO) run ./cmd/acesim scenario run examples/scenarios/link_failure.json

# Figures smoke: the paper figures the CLI runs from its embedded
# bundled scenario files (examples/scenarios), all but the training
# grids fig9a, fig9b, fig10, fig11 and fig12 (`make goldens` pins fig9a
# in full and the 16-NPU slices of fig9b and fig10). Each run evaluates
# its files' assertions, so a
# file that no longer loads or a figure that moved out of its asserted
# range fails the target. interference traces every multijob.json unit
# (~1 GB peak RSS).
figures-smoke:
	$(GO) run ./cmd/acesim fig4
	$(GO) run ./cmd/acesim fig5
	$(GO) run ./cmd/acesim fig6
	$(GO) run ./cmd/acesim ablation
	$(GO) run ./cmd/acesim interference

# Golden gate: the full-size runner goldens (every bundled figure's JSON
# results, byte for byte), the 16-NPU slices of fig9b and fig10, the
# fig4 trace digest, the training step-track trace digest, the multijob
# trace's workers 1-vs-8 byte equality and its peak-heap budget. `go test -short` skips all of them, so this
# target runs them in full mode.
goldens:
	$(GO) test -run 'TestScenarioGoldens|TestFig9bFig10SliceGoldens|TestFig4TraceGolden|TestTrainingTraceGolden|TestTraceWorkerDeterminism|TestMultijobTracePeakHeap' ./internal/scenario/runner

# Hybrid-engine smoke: the fast path's golden-equality gates (hybrid ==
# DES to the picosecond on collectives, Fig 4, training and the p2p
# pipeline graph, plus the refusal/fallback matrix and the randomized
# topology sweep), then the bundled hybrid scenario end to end.
hybrid-smoke:
	$(GO) test -run 'TestHybrid|TestAnalytic|TestAnalyzeOn' ./internal/exper
	$(GO) run ./cmd/acesim scenario run examples/scenarios/hybrid_fastpath.json

# Energy/power smoke: the cross-engine equality suite (hybrid joules
# and power timelines must match DES to the bit; the analytic engine's
# documented divergence stays pinned), the femtojoule determinism tests,
# then the bundled energy-vs-overlap scenario — its assertions gate the
# headline trade-off (overlap raises peak watts, lowers total joules).
power-smoke:
	$(GO) test -run 'TestPower|TestEnergy' ./internal/power ./internal/stats ./internal/exper ./internal/scenario/runner
	$(GO) run ./cmd/acesim scenario run examples/scenarios/energy_vs_overlap.json

# Serving-layer smoke: start an ephemeral daemon, submit the bundled
# fig4 scenario twice, assert the second submission is served entirely
# from the content-addressed cache with a byte-identical json-lines
# body, then drain cleanly. Exits non-zero on any mismatch.
serve-smoke:
	$(GO) run ./cmd/acesim serve -smoke examples/scenarios/fig4.json

# Benchmark module check: perfbench is its own Go module (it reaches
# the simulator through a replace of the parent module), so `go build
# ./...` here never compiles it. Vetting and testing it catches an
# internal API change that would break the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# Benchmark smoke: one short pass of each BENCHMARK.json workload, plus
# observed-sweep's traced per-layer pass. perfbench checks every output
# and exits non-zero when a check fails; it never gates on speed.
perfbench-smoke:
	bash perfbench/run.sh --workload des-sweep --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload hybrid-sweep --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload observed-sweep --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload observed-sweep --seed 1 --seconds 1 --trace 1

# Per-package coverage summary plus the total (short mode: the full
# grids add minutes without covering new statements).
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1

# CI gate: fail when total statement coverage drops below COVER_MIN.
cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $(COVER_MIN)% floor"; exit 1; }

lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

fmt:
	gofmt -w .
