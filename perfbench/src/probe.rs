//! Calls the benchmark makes into single layers, outside any
//! experiment, so each layer's host time can be read on its own.

use crate::check::ensure;
use crate::trace::Tracer;
use sc_dataset::population::PopulationModel;
use sc_dataset::workload::WorkloadParams;
use sc_emu::churn::{exp_clamped, ue_unit};
use sc_geo::cells::CellGrid;
use sc_netsim::chaos::FailureTimeline;
use sc_netsim::des::EventQueue;
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_orbit::{ConstellationConfig, GroundStationSet, IdealPropagator, SatId};
use spacecore::shard::{cell_index, ShardMap};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Replay the soaks' placement layer by layer, each in its own span:
/// `dataset.sample_ues`, then (mload only) `dataset.region_of` once per
/// UE, then `geo.cell_of_point` — the cell lookup, its row-major index
/// and the owning shard, per UE. Returns the UEs per region name (empty
/// unless regions were classified).
pub fn setup_replay(
    tr: &mut Tracer,
    total_ues: usize,
    seed: u64,
    shards: usize,
    region_of: bool,
) -> BTreeMap<&'static str, u64> {
    let pop = PopulationModel::world_bank_like();
    let points = tr.span("dataset.sample_ues", |_| pop.sample_ues(total_ues, seed));
    let mut regions = BTreeMap::new();
    if region_of {
        tr.span("dataset.region_of", |_| {
            for p in &points {
                *regions
                    .entry(pop.region_of(black_box(p)).name())
                    .or_insert(0) += 1;
            }
        });
    }
    let grid = CellGrid::new(53f64.to_radians(), 72, 22);
    let map = ShardMap::new(grid.cell_count(), shards);
    tr.span("geo.cell_of_point", |_| {
        for p in &points {
            black_box(map.shard_of(cell_index(&grid, grid.cell_of_point(black_box(p)))));
        }
    });
    regions
}

/// The replayed region counts must equal the result's `regions[].ues`.
pub fn check_regions(
    replayed: &BTreeMap<&'static str, u64>,
    reported: &[(&'static str, u64)],
) -> Result<(), String> {
    for &(name, ues) in reported {
        let got = replayed.get(name).copied().unwrap_or(0);
        ensure(got == ues, || {
            format!("region {name}: replay {got} UEs, result {ues}")
        })?;
    }
    let total: u64 = reported.iter().map(|r| r.1).sum();
    ensure(replayed.values().sum::<u64>() == total, || {
        "replay classified other regions".into()
    })
}

/// Churn timers of the DES probe.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Timer {
    Arrive(u32),
    Release(u32),
    Sweep(u32),
    Cross(u32),
}

/// Drive `EventQueue::schedule` / `drain_until` in 1 s windows over one
/// mload shard's timer mix — `ues` UEs with Poisson session arrivals,
/// 10–15 s holds, satellite sweeps and rare cell crossings — for the
/// soaks' 150 s horizon, once per shard. Only the queue and the timer
/// draws run; no churn handler does. Each shard's initial schedule and
/// its drain are spans of their own (`netsim.des_schedule`,
/// `netsim.des_drain`), so the drain rate compares with the soaks'
/// simulate phase. Returns the events drained.
pub fn des_probe(tr: &mut Tracer, seed: u64, ues: usize, shards: usize) -> u64 {
    const HORIZON_S: f64 = 150.0;
    const CROSSING_S: f64 = 600.0;
    let params = WorkloadParams::paper_defaults();
    let mut drained = 0u64;
    let mut batch = Vec::new();
    for shard in 0..shards {
        let seed = seed ^ ((shard as u64) << 40);
        let mut draws = vec![0u32; ues];
        let mut draw = |ue: u32| {
            let d = &mut draws[ue as usize];
            *d += 1;
            ue_unit(seed, ue, *d)
        };
        let mut connected = vec![false; ues];
        let mut q: EventQueue<Timer> = EventQueue::new();
        tr.span("netsim.des_schedule", |_| {
            for ue in 0..ues as u32 {
                q.schedule(
                    exp_clamped(params.session_interarrival_s, draw(ue), 1.0),
                    Timer::Arrive(ue),
                );
                q.schedule(draw(ue) * params.transit_s, Timer::Sweep(ue));
                q.schedule(exp_clamped(CROSSING_S, draw(ue), 1.0), Timer::Cross(ue));
            }
        });
        tr.span("netsim.des_drain", |_| {
            for w in 0..HORIZON_S as u64 {
                drained += q.drain_until((w + 1) as f64, &mut batch) as u64;
                for ev in &batch {
                    let t = ev.time;
                    match ev.event {
                        Timer::Arrive(ue) => {
                            if !connected[ue as usize] {
                                connected[ue as usize] = true;
                                q.schedule(t + 10.0 + 5.0 * draw(ue), Timer::Release(ue));
                            }
                            let next = exp_clamped(params.session_interarrival_s, draw(ue), 1.0);
                            q.schedule(t + next, Timer::Arrive(ue));
                        }
                        Timer::Release(ue) => connected[ue as usize] = false,
                        Timer::Sweep(ue) => {
                            let next = params.transit_s * (0.75 + 0.5 * draw(ue));
                            q.schedule(t + next.max(1.0), Timer::Sweep(ue));
                        }
                        Timer::Cross(ue) => {
                            q.schedule(
                                t + exp_clamped(CROSSING_S, draw(ue), 1.0),
                                Timer::Cross(ue),
                            );
                        }
                    }
                }
            }
        });
    }
    drained
}

/// The ext_chaos network: Starlink with its ground stations at t = 0.
/// This is all of that experiment's set-up.
pub fn build_isl() -> IslNetwork {
    let cfg = ConstellationConfig::starlink();
    let prop = IdealPropagator::new(cfg);
    let stations = GroundStationSet::starlink_like();
    IslNetwork::build(&prop, &stations, 0.0, IslConfig::default())
}

/// `calls` path resolutions on the ext_chaos graph between the
/// satellite that takes over serving the UE (`SatId(10, 6)`) and ground
/// node 0, both directions alternating, with a `FailureTimeline`
/// cursor's `is_dead` / `link_down` as the blockers — the resolution
/// `ProcedureSim` makes on every send. The cursor walks the first 4 s
/// of a 5%-crash-rate timeline. Returns the total hop count.
pub fn route_probe(net: &IslNetwork, seed: u64, calls: usize) -> usize {
    let old_serving = net.sat_node(SatId::new(10, 5));
    let new_serving = net.sat_node(SatId::new(10, 6));
    let gateway = net.ground_node(0);
    let crash_rate = sc_emu::ext_chaos::CRASH_RATES[2];
    let recover_ms = sc_emu::ext_chaos::RECOVER_MS[0];
    let tl = FailureTimeline::random_crashes(
        net.num_sats(),
        crash_rate,
        5_000.0,
        Some(recover_ms),
        seed,
    )
    .without_node(new_serving)
    .crash(0.0, old_serving);
    let off = sc_obs::Recorder::disabled();
    let mut cursor = tl.cursor();
    let mut hops = 0;
    for i in 0..calls {
        cursor.advance_to(i as f64 * 4_000.0 / calls as f64, &off);
        let (a, b) = if i % 2 == 0 {
            (new_serving, gateway)
        } else {
            (gateway, new_serving)
        };
        let c = &cursor;
        let path = net.graph().shortest_path_avoiding(
            black_box(a),
            b,
            |n| c.is_dead(n),
            |x, y| c.link_down(x, y),
        );
        hops += path.map_or(0, |p| p.hops());
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_probe_is_deterministic_and_scales_with_ues() {
        let mut tr = Tracer::new();
        let a = des_probe(&mut tr, 7, 200, 2);
        assert_eq!(a, des_probe(&mut tr, 7, 200, 2));
        let b = des_probe(&mut tr, 7, 400, 2);
        assert!(b > a + a / 2, "{a} vs {b}");
        let drains = tr
            .spans()
            .iter()
            .filter(|s| s.name == "netsim.des_drain")
            .count();
        assert_eq!(drains, 6, "one drain span per shard and call");
    }

    #[test]
    fn region_check_flags_a_miscount() {
        let replayed = BTreeMap::from([("Africa", 3), ("Ocean", 1)]);
        assert!(check_regions(&replayed, &[("Africa", 3), ("Ocean", 1)]).is_ok());
        assert!(check_regions(&replayed, &[("Africa", 2), ("Ocean", 1)]).is_err());
        assert!(check_regions(&replayed, &[("Africa", 3)]).is_err());
    }
}
