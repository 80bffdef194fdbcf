# Convenience targets. The canonical gate is `make check`.

.PHONY: build test bench check check-kernels check-robust check-analysis check-perfbench check-memory check-trace check-concurrency check-serve check-dist check-loom check-miri check-tsan lint-safety lint-hot lint-sync lint-strict clippy

build:
	cargo build --release

test:
	cargo test -q --workspace

# Regenerate every results/ artifact (tables, figures, sweeps).
bench:
	cargo run -q --release -p dagfact-bench --bin table1
	cargo run -q --release -p dagfact-bench --bin fig2
	cargo run -q --release -p dagfact-bench --bin fig3
	cargo run -q --release -p dagfact-bench --bin fig4
	cargo run -q --release -p dagfact-bench --bin ablation
	cargo run -q --release -p dagfact-bench --bin memsweep
	cargo run -q --release -p dagfact-bench --bin tracesweep
	cargo run -q --release -p dagfact-bench --bin servesweep
	cargo run -q --release -p dagfact-bench --bin comm
	cargo run -q --release -p dagfact-bench --bin distsweep
	cargo run -q --release -p dagfact-bench --bin kernels_bench

# The full gate: kernels + robustness + static-analysis + memory-budget +
# observability + concurrency-verification + serving + distributed +
# benchmark-harness suites.
check: check-kernels check-robust check-analysis check-memory check-trace check-concurrency check-serve check-dist check-perfbench

# Kernel gate (DESIGN.md §15): the kernels unit suite, the differential
# SIMD-vs-portable fuzz suite with its bitwise tile and blocked-TRSM
# oracles, a forced-scalar build+test leg (--no-default-features proves
# the portable tier stands alone), the golden factor fingerprints
# including the release-size members (bit-identical factors on AVX2),
# and the release-mode kernel study with its two >=1.5x SIMD speedup
# gates, update and ragged shapes (skipped loudly on hosts without AVX2).
check-kernels:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-kernels --lib
	RUST_BACKTRACE=1 cargo test -q -p dagfact-kernels --test simd_fuzz
	RUST_BACKTRACE=1 cargo test -q -p dagfact-kernels --no-default-features
	RUST_BACKTRACE=1 cargo test -q --release -p dagfact-bench --test factor_golden -- --include-ignored
	cargo run -q --release -p dagfact-bench --bin kernels_bench

# Full robustness gate: the whole test suite plus the fault-injection and
# recovery suites with backtraces on, then a warning-free clippy pass.
check-robust:
	RUST_BACKTRACE=1 cargo test -q --workspace
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt --test fault_injection
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test fault_recovery
	cargo clippy --workspace --all-targets -- -D warnings

# Static-analysis gate: the unwrap lint, the graph-verifier suites, the
# golden analysis fingerprints including the nine Table-I proxies
# (release: the graphs are large), the 9-proxies x 3-factos x 3-engines
# sweep, and a warning-free clippy pass.
check-analysis: lint-strict
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt verify
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test verify_graph
	RUST_BACKTRACE=1 cargo test -q --release -p dagfact-bench --test analysis_golden -- --include-ignored
	cargo run -q --release -p dagfact-bench --bin verify_sweep
	cargo clippy --workspace --all-targets -- -D warnings

# Memory-budget gate: the ledger unit suite, the budgeted-execution and
# reader-fuzz integration suites, and the release-mode cap sweep (50% of
# peak must complete through the degradation ladder at full accuracy).
check-memory:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt budget
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test memory_budget
	RUST_BACKTRACE=1 cargo test -q -p dagfact-sparse --test reader_fuzz
	cargo run -q --release -p dagfact-bench --bin memsweep

# Observability gate: the recorder/analyzer unit suite, the engine-level
# span-invariant suite, the Chrome-trace exporter tests, the CLI
# --trace/--metrics tests, and the release-mode trace sweep (3 proxies x
# 3 engines + the tracing-overhead guard).
check-trace:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt trace
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt --test trace_spans
	RUST_BACKTRACE=1 cargo test -q -p dagfact-bench --lib
	RUST_BACKTRACE=1 cargo test -q -p dagfact-cli trace
	cargo run -q --release -p dagfact-bench --bin tracesweep

# Serving gate (DESIGN.md §12): the serve crate's unit suites, the
# job-spec mutation fuzzer, the fault-injected concurrent soak (random
# panics/alloc faults/deadlines — no contamination, typed rejections),
# the CLI serve-mode tests, and the release-mode cache-latency sweep
# (factor hits must be ≥5x faster than cold).
check-serve:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-serve
	RUST_BACKTRACE=1 cargo test -q -p dagfact-serve --test jobspec_fuzz
	RUST_BACKTRACE=1 cargo test -q -p dagfact-serve --test service_soak
	RUST_BACKTRACE=1 cargo test -q -p dagfact-cli serve
	cargo run -q --release -p dagfact-bench --bin servesweep

# Distributed-execution gate (DESIGN.md §14): the dist engine's unit
# and integration suites (chaos sweep, traffic cross-check, recovery
# edge cases), the CLI dist-mode tests, and the release-mode cluster
# sweep (strong scaling + recovery overhead; wrong answers fail). The
# retransmit/ack loom model rides in check-loom.
check-dist:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core dist
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test dist_exec
	RUST_BACKTRACE=1 cargo test -q -p dagfact-cli dist
	cargo run -q --release -p dagfact-bench --bin distsweep

# Benchmark-harness gate: the perfbench package's own tests (metric
# coverage, answer-check teeth, stage oracle, seed determinism). perfbench
# is a separate Cargo package outside the workspace.
check-perfbench:
	RUST_BACKTRACE=1 cargo test -q --release --manifest-path perfbench/Cargo.toml

# Concurrency-verification gate (DESIGN.md §11): exhaustive loom models
# of the six runtime protocols, then the best-effort real-execution
# checkers (Miri, TSan — each skips with a warning when its nightly
# component is unavailable).
check-concurrency: check-loom check-miri check-tsan

# Model-check the six runtime sync protocols (+ their negative "teeth"
# twins) under the in-repo loom-style explorer. The dedicated target dir
# keeps --cfg loom artifacts from churning the normal build cache.
check-loom:
	RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
	    cargo test -q -p dagfact-rt --release --test loom_models

# Curated unsafe-bearing suites under Miri (skips if miri is missing).
check-miri:
	tools/check-miri.sh

# Concurrency suites under ThreadSanitizer (skips without nightly +
# rust-src: a sound TSan run needs an instrumented std via -Zbuild-std).
check-tsan:
	tools/check-tsan.sh

# The SAFETY-contract / ORDERING-justification / sync-shim /
# no-unwrap lint.
lint-safety:
	cargo run -q -p dagfact-lint --bin lint-safety

# Hot-path purity analyzer (DESIGN.md §13): call-graph reachability from
# the roots in lint-hotpaths.toml, checked for allocation-, lock-,
# panic-, I/O- and trace-freedom against tools/lint-hot-baseline.json.
# New findings fail; removing baseline entries is the burn-down.
lint-hot:
	cargo run -q -p dagfact-lint --bin lint-hot

# Lock-discipline & atomics-protocol analyzer (DESIGN.md §16): lock-order
# graph with cycle witnesses, held-across-blocking rule, atomics pairing
# pass. Exact-drift baseline in tools/lint-sync-baseline.json — new
# findings fail, and so do stale keys (record the win).
lint-sync:
	cargo run -q -p dagfact-lint --bin lint-sync

# Static gates: no .unwrap() in rt/core library code (tests exempt),
# 100% SAFETY/ORDERING coverage with no shim bypasses, no new hot-path
# purity findings, and a clean synchronization-discipline pass.
lint-strict: lint-safety lint-hot lint-sync

clippy:
	cargo clippy --workspace --all-targets -- -D warnings
