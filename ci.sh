#!/bin/sh
# Tier-1 gate: release build, full test suite, zero clippy warnings.
set -eu
cd "$(dirname "$0")"

cargo build --release --workspace
# The loop benchmark is its own workspace, so the build above never
# compiles it; build it here so a core API change cannot break it
# unnoticed. Its artifacts go under target/, leaving loopbench/ as is.
CARGO_TARGET_DIR=target/loopbench cargo build --release --offline --locked --quiet \
    --manifest-path loopbench/Cargo.toml
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Packed-GEMM gate: the ragged-shape property suite, run explicitly so
# a kernel regression names itself even if the workspace sweep is
# trimmed later (bitwise-vs-naive across the tile-edge ladder at
# 1/2/4 threads, plus the scratch-reuse allocation contract).
cargo test -q -p insitu-tensor --test packed_gemm

# Conv-lowering gate: the three conv entry points (f32 forward, its
# backward, i8 forward) must stay bitwise equal to the explicit-im2col
# naive oracle across the kernel/stride/pad/plane/channel ladder at
# 1/2/4 threads. Both forwards read B straight from each sample's
# staging slot through the `rows` table, over the padded width: each
# ISA's panel width NR sets how many panels cover a plane's n'
# positions and how far the last one reads into the slot's zeroed
# tail, and stride 2/3 run the same reads with a subsampled write-back.
# A second case reads to the very end of a fresh batch-1 staging, and
# a unit test poisons every slot tail (NaN in f32, -128 in i8) and
# requires all three passes bitwise equal to a clean workspace, so no
# lane past n' reaches an output at that ISA's NR. A plane no larger
# than one kernel window (H*W <= K^2, the jigsaw trunk's 3x3 planes)
# takes the f32 forward's dense lowering instead: one GEMM against the
# filter bank spread over the plane's position pairs, packed into that
# ISA's NR-wide panels and cached per weight change. conv_oracle's
# ladder crosses it (1x1 planes, and 2x5/4x4/5x3 under a 5x5 kernel),
# a third case runs it at the trunk's channels on 3x3 planes with exact
# +-0 inputs and weights up to 144-sample batches, and a fourth changes
# one warm workspace's weights by one ulp and by a zero's sign. These
# legs are the only gates that reach each ISA's slot-reading and dense
# bodies: both run under the auto-detected ISA (the workspace sweep
# above runs the unit test), the portable one, AVX2 where the host has
# it, and in the AVX-512 leg below. The poison filter names one test
# and must run it, so a rename cannot leave it matching nothing.
conv_tail_gate() {
    INSITU_SIMD=$1 cargo test -q -p insitu-tensor --test conv_oracle
    INSITU_SIMD=$1 cargo test -q -p insitu-tensor --lib \
        conv::tests::poisoned_slot_tails_reach_no_output >/tmp/ci_poison.log 2>&1 \
        || { cat /tmp/ci_poison.log; exit 1; }
    grep -q '^test result: ok\. 1 passed' /tmp/ci_poison.log
    rm -f /tmp/ci_poison.log
}
cargo test -q -p insitu-tensor --test conv_oracle
conv_tail_gate scalar
if grep -q avx2 /proc/cpuinfo 2>/dev/null && grep -q fma /proc/cpuinfo; then
    conv_tail_gate avx2
else
    echo "ci: SKIPPED avx2 conv-lowering leg (host lacks avx2/fma)"
fi

# Fixed-point gates: the i8 GEMM must stay bitwise identical to its
# naive i32 oracle at any shape and thread count, under both the
# vectorized and the portable kernel (INSITU_SIMD=scalar pins the i8
# micro-kernel together with the f32 one), and the quantized
# end-to-end path must hold held-out accuracy within two points of
# f32 (plus exact f32 restoration when the precision knob flips back).
cargo test -q -p insitu-tensor --test quant_gemm
INSITU_SIMD=scalar cargo test -q -p insitu-tensor --test quant_gemm
cargo test -q -p insitu-core --test quantized_inference

# Install gates: an update carries only the inference dict after the
# freeze cut. An i8 install's in-place recalibration must stay bitwise
# equal to a fresh calibration over sequences of such suffix-only
# updates (0-3 convs frozen, 1-8 calibration images, 1/2/4 threads),
# and a corrupted update (a suffix truncated, with an extra tensor or
# with a wrong shape; a whole dict that still carries the frozen
# prefix; an update that carries the node's own jigsaw dict) must be
# rejected on an f32 and an i8 node, leaving each bitwise equal to a
# twin that never saw it. Recalibration runs max_abs and quantize_i8,
# so both gates run under the auto-detected ISA and the portable one.
# The recalibration filter names one test and must run it, so a rename
# cannot leave it matching nothing.
for simd in auto scalar; do
    INSITU_SIMD=$simd cargo test -q -p insitu-nn --lib \
        quant::tests::recalibrate_equals_a_fresh_calibrate >/tmp/ci_recal.log 2>&1 \
        || { cat /tmp/ci_recal.log; exit 1; }
    grep -q '^test result: ok\. 1 passed' /tmp/ci_recal.log
    INSITU_SIMD=$simd cargo test -q -p insitu-core --test install_gate
done
rm -f /tmp/ci_recal.log

# SIMD dispatch gates: every dispatched op must match its scalar body
# bitwise across ragged shapes and 1/2/4 threads, under both the
# auto-detected ISA and the forced portable path (INSITU_SIMD=scalar —
# the suite itself asserts the override is in force).
cargo test -q -p insitu-tensor --test simd_ops
INSITU_SIMD=scalar cargo test -q -p insitu-tensor --test simd_ops

# AVX-512 leg: forced only where the host actually has the feature set
# the dispatcher requires (f+bw+dq+vl); elsewhere the leg is skipped
# visibly rather than silently passing.
if grep -q avx512f /proc/cpuinfo 2>/dev/null \
    && grep -q avx512bw /proc/cpuinfo \
    && grep -q avx512dq /proc/cpuinfo \
    && grep -q avx512vl /proc/cpuinfo; then
    INSITU_SIMD=avx512 cargo test -q -p insitu-tensor --test simd_ops
    INSITU_SIMD=avx512 cargo test -q -p insitu-tensor --test packed_gemm
    INSITU_SIMD=avx512 cargo test -q -p insitu-tensor --test quant_gemm
    conv_tail_gate avx512
else
    echo "ci: SKIPPED avx512 leg (host lacks avx512f/bw/dq/vl)"
fi

# aarch64 cross-check leg: compile the NEON bodies when the rust-std
# for the target is installed; best-effort, visibly skipped otherwise.
if [ -d "$(rustc --print sysroot)/lib/rustlib/aarch64-unknown-linux-gnu/lib" ]; then
    cargo check -q --workspace --target aarch64-unknown-linux-gnu
else
    echo "ci: SKIPPED aarch64 cross-check (rust-std for aarch64-unknown-linux-gnu not installed)"
fi

# Telemetry gates: the end-to-end trace test, then a smoke of the
# Chrome-trace exporter through the bench bin (trace goes to stderr,
# snapshot JSON to stdout — both must stay well-formed). --quick keeps
# the timing sweep short; the fields are what CI checks, not the noise.
cargo test -q --test telemetry_trace
INSITU_TRACE=1 cargo run --release -q -p insitu-bench --bin kernels_snapshot -- --quick \
    >/tmp/ci_kernels.json 2>/tmp/ci_trace.json
grep -q '"ns_per_iter"' /tmp/ci_kernels.json
grep -q '"speedup_vs_baseline"' /tmp/ci_kernels.json
grep -q '"precision": "i8"' /tmp/ci_kernels.json
grep -q '"speedup_vs_f32"' /tmp/ci_kernels.json
# The per-op SIMD rows: each dispatched op must report its scalar
# comparison, and the header must name the ISA it ran under.
grep -q '"simd_isa"' /tmp/ci_kernels.json
grep -q '"op": "relu"' /tmp/ci_kernels.json
grep -q '"op": "maxpool"' /tmp/ci_kernels.json
grep -q '"op": "quantize_i8"' /tmp/ci_kernels.json
grep -q '"speedup_vs_scalar"' /tmp/ci_kernels.json
# Dispatch-latency percentiles from the counted pass, and the per-row
# ISA attribution added with the multi-ISA back-ends.
grep -q '"p90_ns"' /tmp/ci_kernels.json
grep -q '"p99_ns"' /tmp/ci_kernels.json
grep -q '"isa"' /tmp/ci_kernels.json
grep -q '"kind": "kernel"' /tmp/ci_kernels.json
grep -q '"kind": "conv_layer"' /tmp/ci_kernels.json
grep -q '"traceEvents"' /tmp/ci_trace.json
rm -f /tmp/ci_kernels.json /tmp/ci_trace.json

# Observability gates: the log-bucketed histogram property suite
# (bucket bounds, merge algebra, percentile monotonicity, bitwise
# stability across 1/2/4 recording threads), the flight-recorder unit
# tests, the snapshot's Prometheus exporter unit tests (golden
# rendering, escaping, validator; the filter must run at least 4 tests,
# so a renamed module cannot leave it matching nothing), and the
# closed-loop integration suite: a traced session's export must
# validate and carry the node.stage latency summary, and its end-to-end
# cases perturb a live session and require it to re-plan, traced or
# not, from the node's own latency only.
cargo test -q -p insitu-telemetry --test hist
cargo test -q -p insitu-core --lib recorder::
cargo test -q -p insitu-telemetry --lib prometheus:: >/tmp/ci_prom.log 2>&1 \
    || { cat /tmp/ci_prom.log; exit 1; }
grep -Eq '^test result: ok\. ([4-9]|[1-9][0-9]+) passed' /tmp/ci_prom.log
rm -f /tmp/ci_prom.log
cargo test -q -p insitu-core --test observability

# Activation-reuse gates: the fused co-running stage must stay bitwise
# identical to the unfused reference written out in the suite (property
# suite across policies, batch sizes and thread counts) and the
# trunk-pass counter must show one pass per image, not per probe.
cargo test -q -p insitu-core --test reuse_properties
cargo test -q -p insitu-core --test trunk_pass_telemetry

# Update-store gates: fine-tuning from the archive's stored prefix
# activations must be bitwise identical to the recompute reference —
# same weights, ModelUpdates and seeded session trajectory — across
# archive sizes, epochs, holdouts, duplicate uploads and 1/2/4 threads,
# and across prefix changes between updates (a frozen weight one ulp
# off, a prefix zero of the other sign, a moved cut), which must
# recompute the whole store. A rejected upload (another class space, a
# label past the model's output, another image shape) must leave an
# archived and a fresh Cloud bitwise equal to a twin. The store is
# bitwise only if each ISA's conv lowering is batch-independent, and
# each ISA builds its own lane table, so both suites run under the
# auto-detected ISA and the portable one. Then the nn-level
# prefix/suffix split against the full forward: that filter names one
# test and must run it, so a rename cannot leave it matching nothing.
for simd in auto scalar; do
    INSITU_SIMD=$simd cargo test -q -p insitu-cloud --test cache_equivalence --test upload_gate
done
cargo test -q -p insitu-nn --lib net::tests::prefix >/tmp/ci_prefix.log 2>&1 \
    || { cat /tmp/ci_prefix.log; exit 1; }
grep -q '^test result: ok\. 1 passed' /tmp/ci_prefix.log
rm -f /tmp/ci_prefix.log
cargo test -q -p insitu-nn --lib train_from_activations

# Overlapped-ingestion gates: the producer/arena/queue unit suite in
# insitu-data, then the end-to-end contract in insitu-core — the Block
# overlapped session, over the live synthesizing source and over a
# replay of the same frames, must be bitwise identical to a hand-driven
# sequential loop (proptest across seeds, queue capacities and 1/2/4
# threads, with a bound on fresh frame buffers), each backpressure
# policy must trigger under a slow consumer, and the Degrade shed and
# the latency re-plan loop must share one owner of the node's precision
# (neither undoes the other; each flip counts once). Run under both SIMD
# modes: the bitwise gate must hold on the vectorized and the portable
# kernels alike.
cargo test -q -p insitu-data ingest
cargo test -q -p insitu-core --test ingestion
INSITU_SIMD=scalar cargo test -q -p insitu-data ingest
INSITU_SIMD=scalar cargo test -q -p insitu-core --test ingestion

echo "ci: all gates passed"
