//! Shard-merging invariants of the sustained-load engine
//! (`sc_emu::ext_mload`): results and telemetry sidecars must be
//! byte-identical across worker-thread counts (`SC_EMU_THREADS` 1 vs 4,
//! passed explicitly through `run_config_with`) and across shard
//! counts, and the churn schedule must be a pure function of the seed.
//!
//! These are the contracts that let `scripts/tier1.sh` cmp the smoke
//! run's artifacts across thread counts, and let `perfbench/` require
//! the serial and parallel million-UE soaks to agree.

use proptest::prelude::*;
use sc_emu::ext_mload::{run_config_with, MloadConfig};
use sc_obs::Recorder;

/// A small-but-real config: hundreds of UEs, a few simulated seconds,
/// every churn path (arrival, piggyback, release, sweep, crossing)
/// exercised.
fn small(total_ues: usize, shards: usize, seed: u64) -> MloadConfig {
    MloadConfig {
        total_ues,
        shards,
        warmup_s: 3.0,
        measure_s: 9.0,
        seed,
        crossing_interval_s: 60.0,
    }
}

/// Run and capture both artifacts: the result JSON and the telemetry
/// sidecar bytes.
fn artifacts(threads: usize, cfg: &MloadConfig) -> (String, String) {
    let obs = Recorder::new();
    let r = run_config_with(threads, &obs, cfg);
    (
        serde_json::to_string_pretty(&r).expect("serialize"),
        obs.snapshot().to_json("ext_mload"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `SC_EMU_THREADS` 1 vs 4: byte-identical results and telemetry
    /// for any population size, shard count and seed.
    #[test]
    fn thread_count_invisible_in_artifacts(
        total_ues in 50usize..600,
        shards in 1usize..32,
        seed in any::<u64>(),
    ) {
        let cfg = small(total_ues, shards, seed);
        let one = artifacts(1, &cfg);
        let four = artifacts(4, &cfg);
        prop_assert_eq!(&one.0, &four.0, "result JSON diverged");
        prop_assert_eq!(&one.1, &four.1, "telemetry sidecar diverged");
    }

    /// Shard count is an execution detail: merging any partition of the
    /// cells reproduces the single-shard bytes exactly.
    #[test]
    fn shard_count_invisible_in_artifacts(
        total_ues in 50usize..600,
        shards in 2usize..64,
        seed in any::<u64>(),
    ) {
        let single = artifacts(2, &small(total_ues, 1, seed));
        let sharded = artifacts(2, &small(total_ues, shards, seed));
        prop_assert_eq!(&single.0, &sharded.0, "result JSON depends on shard count");
        prop_assert_eq!(&single.1, &sharded.1, "telemetry depends on shard count");
    }
}

/// The churn arrival schedule is a pure function of the seed: same seed
/// → same bytes on repeated runs, different seed → different churn.
#[test]
fn churn_schedule_deterministic_under_fixed_seed() {
    let cfg = small(400, 8, 0xC0FFEE);
    let a = artifacts(2, &cfg);
    let b = artifacts(2, &cfg);
    assert_eq!(a, b, "same seed must reproduce identical artifacts");
    let other = artifacts(2, &small(400, 8, 0xC0FFEE + 1));
    assert_ne!(a.0, other.0, "different seeds must produce different churn");
}

/// Shard invariance holds at the exact boundary cases: one shard per
/// cell, and more shards than cells (clamped).
#[test]
fn shard_invariance_at_extremes() {
    let reference = artifacts(1, &small(300, 1, 7));
    for shards in [1584, 100_000] {
        let got = artifacts(4, &small(300, shards, 7));
        assert_eq!(reference, got, "shards={shards}");
    }
}

/// The 2,000-UE, 25 s config the engine's determinism was first pinned
/// on: every churn path, dense enough that shards share crossings.
fn tiny() -> MloadConfig {
    MloadConfig {
        total_ues: 2_000,
        shards: 8,
        warmup_s: 5.0,
        measure_s: 20.0,
        seed: 0x5C_10AD,
        crossing_interval_s: 120.0,
    }
}

#[test]
fn results_and_telemetry_thread_invariant() {
    let reference = artifacts(1, &tiny());
    for threads in [2, 4] {
        assert_eq!(artifacts(threads, &tiny()), reference, "threads={threads}");
    }
}

#[test]
fn results_and_telemetry_shard_invariant() {
    let reference = artifacts(2, &MloadConfig { shards: 1, ..tiny() });
    for shards in [3, 16, 1584, 5000] {
        let got = artifacts(2, &MloadConfig { shards, ..tiny() });
        assert_eq!(got, reference, "shards={shards}");
    }
}

/// With telemetry off (the production path): thread-invariant, and a
/// different seed gives different churn.
#[test]
fn churn_schedule_deterministic_in_seed() {
    let run = |threads, cfg: &MloadConfig| {
        let r = run_config_with(threads, &Recorder::disabled(), cfg);
        serde_json::to_string(&r).expect("serialize")
    };
    let a = run(2, &tiny());
    assert_eq!(a, run(4, &tiny()));
    let other = run(2, &MloadConfig { seed: 99, ..tiny() });
    assert_ne!(a, other, "different seeds must produce different churn");
}
