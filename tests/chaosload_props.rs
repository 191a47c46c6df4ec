//! Shard-merging and batching invariants of the chaos-under-load
//! engine (`sc_emu::ext_chaosload`): results and telemetry sidecars
//! must be byte-identical across worker-thread counts (`SC_EMU_THREADS`
//! 1 vs 4, passed explicitly through `run_config_with`), across shard
//! counts, and across DES drain-batch widths — including when a crash
//! lands exactly on a batch boundary versus mid-batch.
//!
//! These are the contracts that let `scripts/tier1.sh` cmp the smoke
//! run's artifacts across thread counts, and let `perfbench/` require
//! the serial and parallel million-UE chaos soaks to agree. The batching
//! invariance leans on chaos timestamps being quantized to the
//! integer-µs tick grid (`sc_netsim::chaos::quantize_ms_to_us_grid`),
//! so a crash at a window edge is applied on the same tick regardless
//! of how the calendar is drained.

use proptest::prelude::*;
use sc_emu::ext_chaosload::{run_config_with, ChaosloadConfig, MloadConfig};
use sc_netsim::chaos::FailureTimeline;
use sc_obs::Recorder;

/// A small-but-real chaos scenario: hundreds of UEs, a crash with a
/// mid-recovery re-crash, a loss burst over the outage, and a feeder
/// flap — every robustness path (drop, paced reattach, barred
/// admission, deferral, shed, burst loss) exercised in ~20 simulated
/// seconds.
fn small(total_ues: usize, shards: usize, seed: u64, crash_s: f64) -> ChaosloadConfig {
    let base = ChaosloadConfig::smoke();
    ChaosloadConfig {
        load: MloadConfig {
            total_ues,
            shards,
            warmup_s: 3.0,
            measure_s: 17.0,
            seed,
            crossing_interval_s: 60.0,
        },
        timeline: FailureTimeline::none()
            .crash(crash_s * 1000.0, 5)
            .recover((crash_s + 1.5) * 1000.0, 5)
            .crash((crash_s + 2.0) * 1000.0, 5)
            .recover((crash_s + 3.0) * 1000.0, 5)
            .link_flap((crash_s + 6.0) * 1000.0, (crash_s + 8.0) * 1000.0, 20, 24)
            .loss_burst(crash_s * 1000.0, (crash_s + 3.0) * 1000.0, 0.25)
            .with_seed(seed ^ 0xC4A0_5EED),
        deadline_s: 10.0,
        ..base
    }
}

/// Run and capture both artifacts: the result JSON and the telemetry
/// sidecar bytes.
fn artifacts(threads: usize, cfg: &ChaosloadConfig) -> (String, String) {
    let obs = Recorder::new();
    let r = run_config_with(threads, &obs, cfg);
    (
        serde_json::to_string_pretty(&r).expect("serialize"),
        obs.snapshot().to_json("ext_chaosload"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `SC_EMU_THREADS` 1 vs 4: byte-identical results and telemetry
    /// for any population size, shard count and seed.
    #[test]
    fn thread_count_invisible_in_artifacts(
        total_ues in 50usize..400,
        shards in 1usize..32,
        seed in any::<u64>(),
    ) {
        let cfg = small(total_ues, shards, seed, 6.0);
        let one = artifacts(1, &cfg);
        let four = artifacts(4, &cfg);
        prop_assert_eq!(&one.0, &four.0, "result JSON diverged");
        prop_assert_eq!(&one.1, &four.1, "telemetry sidecar diverged");
    }

    /// Shard count is an execution detail: merging any partition of the
    /// cells reproduces the single-shard bytes exactly — even though
    /// chaos cursors are replayed per shard and crash footprints span
    /// shard boundaries.
    #[test]
    fn shard_count_invisible_in_artifacts(
        total_ues in 50usize..400,
        shards in 2usize..64,
        seed in any::<u64>(),
    ) {
        let single = artifacts(2, &small(total_ues, 1, seed, 6.0));
        let sharded = artifacts(2, &small(total_ues, shards, seed, 6.0));
        prop_assert_eq!(&single.0, &sharded.0, "result JSON depends on shard count");
        prop_assert_eq!(&single.1, &sharded.1, "telemetry depends on shard count");
    }

    /// The DES drain-batch width is invisible: 0.25 s, 0.5 s and 1 s
    /// calendars produce the same bytes whether the crash lands exactly
    /// on a batch boundary (6.0) or strictly inside a batch (6.3).
    #[test]
    fn batch_width_and_boundary_alignment_invisible(
        seed in any::<u64>(),
        on_boundary in any::<bool>(),
    ) {
        let crash_s = if on_boundary { 6.0 } else { 6.3 };
        let reference = artifacts(2, &small(250, 8, seed, crash_s));
        for batch_window_s in [0.25, 0.5] {
            let cfg = ChaosloadConfig {
                batch_window_s,
                ..small(250, 8, seed, crash_s)
            };
            let got = artifacts(2, &cfg);
            prop_assert_eq!(&reference.0, &got.0, "batch={} crash={}", batch_window_s, crash_s);
            prop_assert_eq!(&reference.1, &got.1, "batch={} crash={}", batch_window_s, crash_s);
        }
    }

    /// An empty failure timeline is the failure-free soak: the chaos
    /// engine reports exactly `ext_mload`'s churn on the same load
    /// config, and no robustness path ever fires.
    #[test]
    fn zero_fault_chaosload_is_mload(
        total_ues in 50usize..400,
        shards in 1usize..32,
        seed in any::<u64>(),
    ) {
        let cfg = ChaosloadConfig {
            timeline: FailureTimeline::none(),
            ..small(total_ues, shards, seed, 6.0)
        };
        let c = run_config_with(2, &Recorder::disabled(), &cfg);
        let m = sc_emu::ext_mload::run_config_with(2, &Recorder::disabled(), &cfg.load);
        prop_assert_eq!(
            (c.events_total, c.events_measured, c.arrivals, c.establishments),
            (m.events_total, m.events_measured, m.arrivals, m.establishments)
        );
        prop_assert_eq!(
            (c.piggybacked_arrivals, c.releases, c.local_handovers, c.idle_sweeps),
            (m.piggybacked_arrivals, m.releases, m.local_handovers, m.idle_sweeps)
        );
        prop_assert_eq!(
            (c.cell_crossings, c.spacecore_msgs, c.legacy_msgs),
            (m.cell_crossings, m.spacecore_msgs, m.legacy_msgs)
        );
        prop_assert_eq!(c.signaling_reduction.to_bits(), m.signaling_reduction.to_bits());
        prop_assert_eq!(c.mean_active_sessions.to_bits(), m.mean_active_sessions.to_bits());
        prop_assert_eq!(c.p99_step_cost_ms, m.p99_step_cost_ms);
        prop_assert!(c.crashes.is_empty());
        let chaos_counters = [
            c.sessions_dropped, c.reattach_attempts, c.reattach_failures,
            c.sessions_reestablished, c.sessions_survived, c.sessions_late,
            c.sessions_lost, c.reattaching_at_horizon, c.budget_exhausted,
            c.deferred_handovers, c.deferred_releases, c.deferred_establishments,
            c.shed_crossings, c.burst_losses,
        ];
        prop_assert_eq!(chaos_counters, [0; 14]);
    }
}

/// The chaos scenario is a pure function of the seed: same seed → same
/// bytes on repeated runs, different seed → different outcome.
#[test]
fn chaos_outcome_deterministic_under_fixed_seed() {
    let cfg = small(300, 8, 0xC0FFEE, 6.0);
    let a = artifacts(2, &cfg);
    let b = artifacts(2, &cfg);
    assert_eq!(a, b, "same seed must reproduce identical artifacts");
    let other = artifacts(2, &small(300, 8, 0xC0FFEE + 1, 6.0));
    assert_ne!(a.0, other.0, "different seeds must produce different chaos outcomes");
}

/// Shard invariance holds at the exact boundary cases: one shard per
/// cell, and more shards than cells (clamped) — with the crash
/// footprint split across the maximum number of shards.
#[test]
fn shard_invariance_at_extremes() {
    let reference = artifacts(1, &small(250, 1, 7, 6.0));
    for shards in [1584, 100_000] {
        let got = artifacts(4, &small(250, shards, 7, 6.0));
        assert_eq!(reference, got, "shards={shards}");
    }
}

/// A crash scheduled exactly at the warmup edge and one at the horizon
/// edge don't wedge the accounting: the engine stays consistent
/// (dropped = survived + late + lost + pending).
#[test]
fn crash_at_measurement_edges_keeps_accounting_consistent() {
    for crash_s in [3.0, 18.5] {
        let r = run_config_with(2, &Recorder::disabled(), &small(300, 8, 11, crash_s));
        let pending: u64 = r.crashes.iter().map(|c| c.pending).sum();
        assert_eq!(
            r.sessions_dropped,
            r.sessions_survived + r.sessions_late + r.sessions_lost + pending,
            "crash_s={crash_s}"
        );
    }
}

/// A recovery deadline off the 0.25 s slot grid is rejected in every
/// build profile: flooring it would count sessions re-established just
/// before the deadline as late.
#[test]
#[should_panic(expected = "0.25 s slot grid")]
fn deadline_off_the_slot_grid_is_rejected() {
    let cfg = ChaosloadConfig {
        deadline_s: 12.1,
        ..small(50, 2, 1, 6.0)
    };
    run_config_with(1, &Recorder::disabled(), &cfg);
}

/// The per-UE attempt counter is a byte: a larger retry budget is
/// rejected rather than wrapped.
#[test]
#[should_panic(expected = "max_attempts")]
fn retry_budget_beyond_the_attempt_counter_is_rejected() {
    let mut cfg = small(50, 2, 1, 6.0);
    cfg.budget.max_attempts = 256;
    run_config_with(1, &Recorder::disabled(), &cfg);
}

/// The per-UE crash row is a signed byte: a scenario with more crashes
/// inside the horizon than it can index is rejected.
#[test]
#[should_panic(expected = "crash count")]
fn crash_count_beyond_the_crash_row_is_rejected() {
    let timeline = (0..128).fold(FailureTimeline::none(), |tl, k| {
        tl.crash(5_000.0 + f64::from(k), 5)
    });
    let cfg = ChaosloadConfig {
        timeline,
        ..small(50, 2, 1, 6.0)
    };
    run_config_with(1, &Recorder::disabled(), &cfg);
}

/// Thread and shard invariance on a 3,000-UE soak whose crash and loss
/// burst overlap, including threads=3 over one shard per cell.
#[test]
fn results_thread_and_shard_invariant_smoke() {
    let cfg = |shards| ChaosloadConfig {
        load: MloadConfig {
            total_ues: 3_000,
            shards,
            warmup_s: 3.0,
            measure_s: 15.0,
            ..MloadConfig::smoke()
        },
        timeline: FailureTimeline::none()
            .crash(6_000.0, 5)
            .recover(8_000.0, 5)
            .loss_burst(6_000.0, 9_000.0, 0.25)
            .with_seed(0xC4A0_5EED),
        deadline_s: 10.0,
        ..ChaosloadConfig::smoke()
    };
    let reference = artifacts(1, &cfg(8));
    for (threads, shards) in [(4, 8), (2, 1), (3, 1584)] {
        let got = artifacts(threads, &cfg(shards));
        assert_eq!(got, reference, "threads={threads} shards={shards}");
    }
}
