//! SLO gate on the checked-in headline artifacts: the paper's two
//! claims, read from the full million-UE soaks' telemetry sidecars
//! without re-running them. `scripts/tier1.sh` regenerates both soaks
//! and `cmp`s them against these files, so together the two checks
//! gate the full-run SLOs on every change.

use sc_obs::sidecar::Sidecar;

fn sidecar(name: &str) -> Sidecar {
    let path = format!("{}/results/{name}.telemetry.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Sidecar::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e:?}"))
}

fn gauge(sc: &Sidecar, key: &str) -> f64 {
    *sc.gauges.get(key).unwrap_or_else(|| panic!("gauge {key} missing"))
}

fn counter(sc: &Sidecar, key: &str) -> u64 {
    *sc.counters.get(key).unwrap_or_else(|| panic!("counter {key} missing"))
}

/// Sessions survive a satellite crash and its mid-recovery re-crash,
/// and the paced re-registration storm stays inside its budget.
#[test]
fn chaosload_recovery_slos_hold() {
    let sc = sidecar("ext_chaosload");
    let survival = gauge(&sc, "emu.chaosload.session_survival");
    assert!(survival >= 0.98, "session survival {survival} < 0.98");
    let surge = gauge(&sc, "emu.chaosload.surge_amplitude");
    assert!(surge <= 3.0, "signaling surge {surge}x > 3x steady state");
    for slo in ["chaosload_surge", "chaosload_recovery"] {
        let key = format!("slo.breached_windows.{slo}");
        assert_eq!(counter(&sc, &key), 0, "{key}");
    }
}

/// Stateless signaling under churn needs over 3x fewer messages than
/// the legacy home-routed core.
#[test]
fn mload_signaling_reduction_exceeds_3x() {
    let sc = sidecar("ext_mload");
    let legacy = counter(&sc, "emu.mload.msgs_legacy") as f64;
    let spacecore = counter(&sc, "emu.mload.msgs_spacecore") as f64;
    assert!(
        legacy / spacecore > 3.0,
        "signaling reduction {:.3}x <= 3x ({legacy} legacy vs {spacecore} SpaceCore msgs)",
        legacy / spacecore
    );
}
