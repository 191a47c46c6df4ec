//! Per-layer metrics of a traced pass. Layer names are crate names;
//! every traced run reports every metric below, 0 where the workload
//! does not exercise the layer.

use crate::report::Metric;
use crate::soak::Sim;

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("dataset.sample_ues_s", "s"),
    ("dataset.region_of_s", "s"),
    ("dataset.region_of_calls", "count"),
    ("geo.cell_of_point_s", "s"),
    ("emu.setup_serial_s", "s"),
    ("emu.setup_explained", "fraction"),
    ("emu.simulate_s", "s"),
    ("emu.events_total", "count"),
    ("emu.events_measured", "count"),
    ("emu.serial_wall_s", "s"),
    ("emu.parallel_wall_s", "s"),
    ("emu.parallel_speedup", "x"),
    ("emu.serial_fraction", "fraction"),
    ("emu.serial_explained", "fraction"),
    ("emu.serialize_s", "s"),
    ("emu.result_bytes", "bytes"),
    ("netsim.route_calls", "count"),
    ("netsim.route_us_per_call", "us"),
    ("netsim.route_share", "fraction"),
    ("netsim.des_events_per_s", "1/s"),
    ("netsim.des_share", "fraction"),
    ("netsim.sim.retransmission_share", "fraction"),
    ("netsim.sim.partition_retries", "count"),
    ("spacecore.reattach_yield", "fraction"),
    ("spacecore.budget_exhausted", "count"),
    ("spacecore.deferred", "count"),
    ("spacecore.shed_crossings", "count"),
    ("spacecore.piggyback_share", "fraction"),
    ("spacecore.surge_amplitude", "x"),
    ("spacecore.reattach_p99_sim_ms", "ms"),
    ("obs.overhead_ratio", "x"),
    ("obs.snapshot_json_s", "s"),
    ("obs.sidecar_bytes", "bytes"),
];

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("signaling_reduction", "x"),
    ("session_survival", "fraction"),
];

/// The end-to-end metrics from their values, in [`END_TO_END`] order.
pub fn end_to_end(values: [f64; 6]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// What the soaks' serial wall holds beyond the named layers.
pub const SOAK_GAP: &str = "the per-event churn handlers inside emu's run_shard (billing, \
    cell ledger, per-UE hash draws), the initial schedule and the slot-order fold";
/// What ext_chaos's serial wall holds beyond the named layers.
pub const CHAOS_GAP: &str = "ProcedureSim's event handling (timers, loss draws, chaos-cursor \
    advances) outside path resolution";

/// Host times (s, one worker thread unless named otherwise) and counts
/// from one traced pass.
#[derive(Debug, Default)]
pub struct LayerInputs {
    pub threads: usize,
    pub serial_wall: f64,
    pub parallel_wall: f64,
    /// Set-up host time: the 1 s horizon run, or `IslNetwork::build`.
    pub setup_serial: f64,
    /// Set-up that is itself a named netsim call (`IslNetwork::build`).
    pub setup_is_named: bool,
    pub sample_ues: f64,
    pub region_of: f64,
    pub region_of_calls: u64,
    pub cell_of_point: f64,
    pub des_events_per_s: f64,
    pub route_calls: u64,
    pub route_us_per_call: f64,
    pub retransmission_share: f64,
    pub partition_retries: u64,
    pub recorder_wall: f64,
    pub snapshot_json_s: f64,
    pub sidecar_bytes: u64,
    pub serialize_s: f64,
    pub result_bytes: u64,
    pub sim: Sim,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl LayerInputs {
    pub fn metrics(&self) -> Vec<Metric> {
        let setup_layers = self.sample_ues + self.region_of + self.cell_of_point;
        let simulate = self.serial_wall - self.setup_serial;
        let des_s = ratio(self.sim.events_total as f64, self.des_events_per_s);
        let route_s = self.route_calls as f64 * self.route_us_per_call * 1e-6;
        let named_setup = if self.setup_is_named {
            self.setup_serial
        } else {
            setup_layers
        };
        let named = named_setup + des_s + route_s + self.serialize_s;
        let speedup = ratio(self.serial_wall, self.parallel_wall);
        let p = self.threads as f64;
        // Amdahl: speedup = 1 / (f + (1 - f) / p), solved for f.
        let serial_fraction = if self.threads > 1 && speedup > 0.0 {
            (p / speedup - 1.0) / (p - 1.0)
        } else {
            1.0
        };
        let values = [
            self.sample_ues,
            self.region_of,
            self.region_of_calls as f64,
            self.cell_of_point,
            self.setup_serial,
            ratio(setup_layers, self.setup_serial),
            simulate,
            self.sim.events_total as f64,
            self.sim.events_measured as f64,
            self.serial_wall,
            self.parallel_wall,
            speedup,
            serial_fraction,
            ratio(named, self.serial_wall),
            self.serialize_s,
            self.result_bytes as f64,
            self.route_calls as f64,
            self.route_us_per_call,
            ratio(route_s, self.serial_wall),
            self.des_events_per_s,
            ratio(des_s, simulate),
            self.retransmission_share,
            self.partition_retries as f64,
            self.sim.reattach_yield,
            self.sim.budget_exhausted as f64,
            self.sim.deferred as f64,
            self.sim.shed_crossings as f64,
            self.sim.piggyback_share,
            self.sim.surge_amplitude,
            self.sim.reattach_p99_sim_ms,
            ratio(self.recorder_wall, self.serial_wall),
            self.snapshot_json_s,
            self.sidecar_bytes as f64,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// Per-metric median over the passes of a traced run.
pub fn median_metrics(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let xs: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            Metric {
                value: crate::median_of(&xs),
                ..m.clone()
            }
        })
        .collect()
}

/// When the named layers explain less than 90% of the serial wall,
/// say how much is left and what it is.
pub fn gap_note(metrics: &[Metric], what: &str) -> Option<String> {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(0.0, |m| m.value)
    };
    let explained = get("emu.serial_explained");
    let wall = get("emu.serial_wall_s");
    (explained < 0.9).then(|| {
        format!(
            "named layers explain {:.1}% of emu.serial_wall_s = {:.3} s; the other {:.3} s is {what}",
            100.0 * explained,
            wall,
            wall * (1.0 - explained)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark reports is declared in BENCHMARK.json
    /// with the same unit, and nothing else is declared.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let all: Vec<_> = PER_LAYER.iter().chain(END_TO_END.iter()).collect();
        for (name, unit) in &all {
            assert!(crate::report::valid_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, all.len(), "BENCHMARK.json declares other metrics");
    }

    #[test]
    fn layer_arithmetic() {
        let inputs = LayerInputs {
            threads: 2,
            serial_wall: 4.0,
            parallel_wall: 2.5,
            setup_serial: 2.0,
            sample_ues: 0.5,
            region_of: 1.0,
            cell_of_point: 0.1,
            des_events_per_s: 1e6,
            serialize_s: 0.01,
            recorder_wall: 4.4,
            sim: Sim {
                events_total: 1_000_000,
                ..Sim::default()
            },
            ..LayerInputs::default()
        };
        let m = inputs.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|x| x.name == n).expect(n).value;
        assert!((get("emu.setup_explained") - 0.8).abs() < 1e-12);
        assert_eq!(get("emu.simulate_s"), 2.0);
        assert!((get("emu.parallel_speedup") - 1.6).abs() < 1e-12);
        // 2 / 1.6 - 1 = 0.25 of the work stays serial.
        assert!((get("emu.serial_fraction") - 0.25).abs() < 1e-12);
        assert!((get("netsim.des_share") - 0.5).abs() < 1e-12);
        assert!((get("emu.serial_explained") - (1.6 + 1.0 + 0.01) / 4.0).abs() < 1e-12);
        assert!((get("obs.overhead_ratio") - 1.1).abs() < 1e-12);
        let gap = gap_note(&m, "the rest").expect("65% explained");
        assert!(gap.starts_with("named layers explain 65."), "{gap}");
    }
}
