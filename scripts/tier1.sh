#!/usr/bin/env sh
# Tier-1 verification (ROADMAP.md): release build + quiet test run.
#
# Runs with --offline: every external dependency is vendored under
# vendor/ (see vendor/README.md), so the build must never touch a
# registry. With no arguments the test run covers every workspace
# member (--workspace); any arguments replace that and pass through to
# `cargo test`, e.g.
#   scripts/tier1.sh -p sc-netsim
set -eu

cd "$(dirname "$0")/.."

[ "$#" -eq 0 ] && set -- --workspace

echo "== tier-1: cargo build --release --offline" >&2
cargo build --release --offline

echo "== tier-1: cargo test -q --offline $*" >&2
cargo test -q --offline "$@"

# Statelessness/determinism audit, warn-only at this tier: R1/R2 token
# findings, R4 state-flow and R5 parallel-determinism dataflow findings,
# and R3/R4/R5 ratchet regressions are printed but do not fail the
# build. scripts/audit.sh is the fatal gate (and emits the SARIF
# artifact).
echo "== tier-1: sc-audit (warn-only; scripts/audit.sh enforces)" >&2
cargo run -q -p sc-audit --offline -- --warn-only || true

# Perf-ratchet (opt-out: SC_NO_RATCHET=1). Regenerate the fig10 sc-obs
# sidecar deterministically (threads=1 — spans record *simulated* time,
# so the file is byte-stable and a checked-in baseline is meaningful)
# and gate span regressions against perf/fig10.telemetry.baseline.json
# with `sctrace diff --fail-on-regress`. 5% headroom: simulated span
# durations only move when modeled behavior changes, and small modeled
# shifts should not block unrelated work; anything larger is either a
# real regression or an intentional change that must regenerate the
# baseline (see perf/README.md).
if [ "${SC_NO_RATCHET:-0}" = "0" ]; then
    echo "== tier-1: perf-ratchet (sctrace diff vs perf/fig10.telemetry.baseline.json)" >&2
    RATCHET_TMP="$(mktemp -d)"
    ( cd "$RATCHET_TMP" && \
      SC_EMU_THREADS=1 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin fig10 -- \
          --obs-out "$RATCHET_TMP/fig10.telemetry.json" >/dev/null )
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        diff perf/fig10.telemetry.baseline.json "$RATCHET_TMP/fig10.telemetry.json" \
        --fail-on-regress 5 >&2 || {
        echo "== tier-1: FAIL — perf-ratchet: fig10 span regression vs checked-in baseline" >&2
        echo "           (intentional change? regenerate per perf/README.md; bypass: SC_NO_RATCHET=1)" >&2
        rm -rf "$RATCHET_TMP"
        exit 1
    }
    rm -rf "$RATCHET_TMP"
    echo "== tier-1: perf-ratchet clean (--fail-on-regress 5)" >&2
fi

# Headline artifacts: regenerate the full million-UE soaks (release,
# SC_OBS=1) in a temp dir, so checked-in files are never touched, and
# require the result JSON, the telemetry sidecar and the stdout render
# to match results/ byte for byte.
echo "== tier-1: headline artifacts (full ext_mload + ext_chaosload vs results/)" >&2
HEAD_TMP="$(mktemp -d)"
for exp in ext_mload ext_chaosload; do
    ( cd "$HEAD_TMP" && \
      SC_OBS=1 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin "$exp" > "$HEAD_TMP/$exp.txt" )
    for f in "results/$exp.json" "results/$exp.telemetry.json"; do
        cmp "$f" "$HEAD_TMP/$f" || {
            echo "== tier-1: FAIL — regenerated $f differs from the checked-in file" >&2
            rm -rf "$HEAD_TMP"; exit 1; }
    done
    cmp "results/$exp.txt" "$HEAD_TMP/$exp.txt" || {
        echo "== tier-1: FAIL — $exp stdout differs from results/$exp.txt" >&2
        rm -rf "$HEAD_TMP"; exit 1; }
    echo "== tier-1: $exp full soak byte-identical (json, telemetry, txt)" >&2
done
rm -rf "$HEAD_TMP"

# Opt-in telemetry determinism check (SC_OBS=1 scripts/tier1.sh): run
# fig05 and fig10 with the sc-obs sidecar enabled, twice and under
# different thread counts, and require byte-identical telemetry.json.
# See docs/TELEMETRY.md for the schema.
if [ "${SC_OBS:-0}" != "0" ] && [ -n "${SC_OBS:-}" ]; then
    echo "== tier-1: SC_OBS telemetry determinism (fig05, fig10)" >&2
    OBS_TMP="$(mktemp -d)"
    trap 'rm -rf "$OBS_TMP"' EXIT
    for exp in fig05 fig10; do
        ( cd "$OBS_TMP" && \
          SC_EMU_THREADS=1 cargo run -q --release --offline \
              --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin "$exp" -- \
              --obs-out "$OBS_TMP/$exp.t1.json" >/dev/null && \
          SC_EMU_THREADS=1 cargo run -q --release --offline \
              --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin "$exp" -- \
              --obs-out "$OBS_TMP/$exp.t1b.json" >/dev/null && \
          SC_EMU_THREADS=4 cargo run -q --release --offline \
              --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin "$exp" -- \
              --obs-out "$OBS_TMP/$exp.t4.json" >/dev/null )
        cmp "$OBS_TMP/$exp.t1.json" "$OBS_TMP/$exp.t1b.json" || {
            echo "== tier-1: FAIL — $exp telemetry differs across reruns" >&2; exit 1; }
        cmp "$OBS_TMP/$exp.t1.json" "$OBS_TMP/$exp.t4.json" || {
            echo "== tier-1: FAIL — $exp telemetry differs across thread counts" >&2; exit 1; }
        echo "== tier-1: $exp telemetry byte-stable (reruns, threads 1 vs 4)" >&2
    done

    # Causal spans + cross-run diff gate: fig10's sidecar must carry the
    # storm miniature's traced C2 replays ("spans" section), and
    # `sctrace diff` of a byte-identical rerun pair must gate zero
    # regressions at the tightest threshold.
    grep -q '"spans"' "$OBS_TMP/fig10.t1.json" || {
        echo "== tier-1: FAIL — fig10 sidecar has no spans section" >&2; exit 1; }
    echo "== tier-1: sctrace critical-path (fig10)" >&2
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        critical-path "$OBS_TMP/fig10.t1.json" >&2
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        diff "$OBS_TMP/fig10.t1.json" "$OBS_TMP/fig10.t1b.json" --fail-on-regress 0 >&2 || {
        echo "== tier-1: FAIL — sctrace diff gated a regression between identical reruns" >&2
        exit 1; }
    echo "== tier-1: sctrace diff gate clean (rerun pair, --fail-on-regress 0)" >&2

    # Chaos experiment: the result JSON and the telemetry sidecar must
    # both be byte-identical across thread counts (the timeline replay,
    # burst draws, and per-cell recorders are all seeded + slot-merged).
    echo "== tier-1: ext_chaos result/telemetry byte-stability (threads 1 vs 4)" >&2
    ( cd "$OBS_TMP" && \
      SC_EMU_THREADS=1 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin ext_chaos -- \
          --obs-out "$OBS_TMP/ext_chaos.t1.json" >/dev/null && \
      cp results/ext_chaos.json ext_chaos.r1.json && \
      SC_EMU_THREADS=4 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin ext_chaos -- \
          --obs-out "$OBS_TMP/ext_chaos.t4.json" >/dev/null && \
      cp results/ext_chaos.json ext_chaos.r4.json )
    cmp "$OBS_TMP/ext_chaos.r1.json" "$OBS_TMP/ext_chaos.r4.json" || {
        echo "== tier-1: FAIL — ext_chaos results differ across thread counts" >&2; exit 1; }
    cmp "$OBS_TMP/ext_chaos.t1.json" "$OBS_TMP/ext_chaos.t4.json" || {
        echo "== tier-1: FAIL — ext_chaos telemetry differs across thread counts" >&2; exit 1; }
    echo "== tier-1: ext_chaos byte-stable (results + telemetry, threads 1 vs 4)" >&2

    # Sustained-load engine, bounded smoke config (seconds, not the
    # million-UE soak): per-shard recorders are merged in slot order and
    # every reported quantity is shard-additive, so both the result JSON
    # and the telemetry sidecar must be byte-identical across thread
    # counts (docs/BENCHMARKS.md covers the full soak).
    echo "== tier-1: ext_mload --smoke result/telemetry byte-stability (threads 1 vs 4)" >&2
    ( cd "$OBS_TMP" && \
      SC_EMU_THREADS=1 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin ext_mload -- \
          --smoke --obs-out "$OBS_TMP/ext_mload.t1.json" >/dev/null && \
      cp results/ext_mload.json ext_mload.r1.json && \
      SC_EMU_THREADS=4 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin ext_mload -- \
          --smoke --obs-out "$OBS_TMP/ext_mload.t4.json" >/dev/null && \
      cp results/ext_mload.json ext_mload.r4.json )
    cmp "$OBS_TMP/ext_mload.r1.json" "$OBS_TMP/ext_mload.r4.json" || {
        echo "== tier-1: FAIL — ext_mload results differ across thread counts" >&2; exit 1; }
    cmp "$OBS_TMP/ext_mload.t1.json" "$OBS_TMP/ext_mload.t4.json" || {
        echo "== tier-1: FAIL — ext_mload telemetry differs across thread counts" >&2; exit 1; }
    echo "== tier-1: ext_mload byte-stable (results + telemetry, threads 1 vs 4)" >&2

    # Chaos under load, bounded smoke config: the fault-injected soak
    # (satellite crash + mid-recovery re-crash, feeder flap, loss burst)
    # drives paced reattach storms, admission barring and overload
    # deferral across shard boundaries — every one of those draws is
    # keyed by (seed, ue, attempt) and chaos markers replay per shard,
    # so results and telemetry must still be byte-identical across
    # thread counts (docs/BENCHMARKS.md covers the full soak + SLOs).
    echo "== tier-1: ext_chaosload --smoke result/telemetry byte-stability (threads 1 vs 4)" >&2
    ( cd "$OBS_TMP" && \
      SC_EMU_THREADS=1 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin ext_chaosload -- \
          --smoke --obs-out "$OBS_TMP/ext_chaosload.t1.json" >/dev/null && \
      cp results/ext_chaosload.json ext_chaosload.r1.json && \
      SC_EMU_THREADS=4 cargo run -q --release --offline \
          --manifest-path "$OLDPWD/Cargo.toml" -p sc-emu --bin ext_chaosload -- \
          --smoke --obs-out "$OBS_TMP/ext_chaosload.t4.json" >/dev/null && \
      cp results/ext_chaosload.json ext_chaosload.r4.json )
    cmp "$OBS_TMP/ext_chaosload.r1.json" "$OBS_TMP/ext_chaosload.r4.json" || {
        echo "== tier-1: FAIL — ext_chaosload results differ across thread counts" >&2; exit 1; }
    cmp "$OBS_TMP/ext_chaosload.t1.json" "$OBS_TMP/ext_chaosload.t4.json" || {
        echo "== tier-1: FAIL — ext_chaosload telemetry differs across thread counts" >&2; exit 1; }
    echo "== tier-1: ext_chaosload byte-stable (results + telemetry, threads 1 vs 4)" >&2

    # Windowed time-series layer (sc-obs/3): the cmp checks above already
    # prove the "series" section byte-stable across thread counts; here,
    # require that the load-engine sidecars actually carry their windowed
    # series (an empty section would make those cmps vacuous), and smoke
    # the `sctrace series` analytics over the storm-shaped chaosload run.
    for pair in "ext_mload.t1.json:emu.mload.events_per_s" \
                "ext_chaosload.t1.json:emu.chaosload.rereg_storm_per_s" \
                "fig10.t1.json:fiveg.msgs_per_window.c2_session_establishment"; do
        side="${pair%%:*}"; name="${pair#*:}"
        grep -q "\"$name\"" "$OBS_TMP/$side" || {
            echo "== tier-1: FAIL — $side sidecar is missing series \"$name\"" >&2; exit 1; }
    done
    echo "== tier-1: sctrace series (ext_chaosload storm windows)" >&2
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        series "$OBS_TMP/ext_chaosload.t1.json" >&2 || {
        echo "== tier-1: FAIL — sctrace series could not render the chaosload sidecar" >&2
        exit 1; }
fi

echo "== tier-1: OK" >&2
