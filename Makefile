# Convenience targets. Everything is plain cargo underneath; the build is
# fully offline (external deps are vendored under shims/).

CARGO ?= cargo
export CARGO_NET_OFFLINE = true

.PHONY: build test test-all golden chaos-sweep chaos-experiments trace-replay bench bench-compare profile clean

## Release build of the whole workspace.
build:
	$(CARGO) build --release

## Tier-1: the root crate's tests (unit + integration + doc).
test:
	$(CARGO) build --release
	$(CARGO) test -q

## Every crate in the workspace, including the chaos and shim crates.
test-all:
	$(CARGO) test --workspace -q

## Regenerate the golden digest matrix (tests/golden/digests.txt: every
## chaos scenario at seeds 1-4) from the current code, then show which
## lines moved. Only for an intended behaviour change; say in CHANGES.md
## which lines moved.
golden:
	$(CARGO) test -q --test golden -- --ignored regenerate_golden_digests
	git diff --stat tests/golden/

## Tier-1 verify, then the deterministic fault-injection sweep over the
## CRDT-sync and queue-pipeline scenarios, fanned out across every core
## (byte-identical to a serial sweep) and reporting seeds/sec. Fails
## (nonzero exit) on any invariant violation or replay divergence and
## prints the minimal failing seed. Override the seed count with
## CHAOS_SEEDS=<n>.
CHAOS_SEEDS ?= 16
chaos-sweep: test
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) run --release --example chaos_sweep

## All eight paper experiments' `resilient()` variants, swept across
## CHAOS_SEEDS seeds under both the calm and the hostile fault plan.
## Every seed must satisfy the end-to-end invariants (exactly-once
## effects, DLQ-aware message conservation, ledger consistency,
## completion-or-declared-failure) and replay byte-identically.
chaos-experiments: test
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) run --release --example chaos_experiments

## Paper-scale trace replay: stream a ~1.1M-invocation, 12k-function
## Azure-style workload trace (Zipf popularity, Poisson/bursty/diurnal
## arrivals) through the platform and print the replay report —
## cold-start rate, latency p50/p95/p99/p99.9, fairness spread, packing
## density, $/hr. Runs the seed twice and fails unless digest, bill, and
## report are byte-identical. `TRACE_SEED=<s>` picks the seed.
TRACE_SEED ?= 2019
trace-replay:
	$(CARGO) run --release --example trace_replay -- --seed $(TRACE_SEED)

## Wall-clock performance baseline: DES-kernel events/sec, per-experiment
## wall-clock, and 64-seed sweep throughput (serial vs parallel). Writes
## BENCH_baseline.json — the perf trajectory future PRs are gated on.
bench:
	$(CARGO) bench -p faasim-bench --bench wallclock

## Regression gate: re-run the wall-clock suite and diff it against the
## committed BENCH_baseline.json — kernel benches on events/sec,
## experiments on wall-clock ratio. Fails (nonzero exit) if anything is
## more than 25% slower (override with BENCH_COMPARE_TOLERANCE=<frac>);
## shrink the sweep for smoke runs with BENCH_SWEEP_SEEDS=<n>.
bench-compare:
	$(CARGO) bench -p faasim-bench --bench bench_compare

## Engine profile: run the replay kernels once and print the executor's
## SimProfile counters (task polls, timer pushes/fires/cancels, wheel
## cascades, spawns, peak live tasks) next to invocations/sec, so perf
## work can attribute wins instead of guessing from wall-clock alone.
## PROFILE_SCALE=100k (default) | 1m | 1m-smoke.
PROFILE_SCALE ?= 100k
profile:
	PROFILE_SCALE=$(PROFILE_SCALE) $(CARGO) bench -p faasim-bench --bench profile

clean:
	$(CARGO) clean
