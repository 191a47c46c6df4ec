//! The `chaos` workload: `ext_chaos::run_with` over the Starlink ISL
//! graph. It has no public seed, so every call is byte-compared with
//! the checked-in artifact.

use crate::check::{ensure, same_bytes, Ops};
use crate::layers::{LayerInputs, CHAOS_GAP};
use crate::probe;
use crate::report::Metric;
use crate::soak::Sim;
use crate::trace::Tracer;
use crate::{artifact, median_of, peak_rss_mb, repeat_for, Ctx, Report, Samples};
use sc_emu::ext_chaos::{ChaosPoint, ExtChaos, RUNS};
use sc_obs::Recorder;
use std::time::Instant;

const EXPERIMENT: &str = "ext_chaos";
/// `IslNetwork::build` calls timed per iteration (each takes ~1 ms).
const SETUP_REPS: usize = 20;
/// Path resolutions per traced pass for the per-call cost.
const ROUTE_PROBE_CALLS: usize = 1_000;

/// Simulated outcomes of one result. Events are the path-resolving
/// sends: every transmission attempt resolves its path once.
fn sim(r: &ExtChaos) -> Sim {
    fn of<'a>(r: &'a ExtChaos, name: &'a str) -> impl Iterator<Item = &'a ChaosPoint> {
        r.points.iter().filter(move |p| p.solution == name)
    }
    let sends: f64 = r
        .points
        .iter()
        .map(|p| p.mean_transmissions * RUNS as f64)
        .sum();
    let tx = |name: &str| of(r, name).map(|p| p.mean_transmissions).sum::<f64>();
    Sim {
        events_total: sends.round() as u64,
        events_measured: sends.round() as u64,
        // Recovery-exchange messages of the legacy 5G NTN baseline per
        // SpaceCore message, over the same crash cells.
        signaling_reduction: tx("5G NTN") / tx("SpaceCore"),
        session_survival: of(r, "SpaceCore")
            .map(|p| p.session_survival)
            .fold(f64::INFINITY, f64::min),
        ..Sim::default()
    }
}

fn to_json(r: &ExtChaos) -> String {
    serde_json::to_string_pretty(r).expect("results serialize")
}

fn checked_run(threads: usize, obs: &Recorder, reference: &[u8]) -> Result<Sim, String> {
    let out = sc_emu::ext_chaos::run_with(threads, obs);
    same_bytes(EXPERIMENT, reference, to_json(&out).as_bytes())?;
    Ok(sim(&out))
}

/// Build the network and check its shape against the first build.
fn checked_build(first: &mut Option<(usize, usize)>) -> Result<(), String> {
    let net = probe::build_isl();
    let shape = (net.num_sats(), net.num_ground());
    ensure(shape.0 > 0 && shape.1 > 0, || "empty ISL network".into())?;
    let want = *first.get_or_insert(shape);
    ensure(shape == want, || {
        format!("ISL network shape {shape:?}, first build {want:?}")
    })
}

pub fn untraced(ctx: &Ctx) -> Result<Report, String> {
    let reference = artifact(EXPERIMENT)?;
    let off = Recorder::disabled();
    let mut ops = Ops::default();
    let mut shape = None;
    let (mut wall, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    repeat_for(ctx.seconds, 2, |_| {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            ops.run("IslNetwork::build", || checked_build(&mut shape));
            setup.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let s = ops.run(EXPERIMENT, || checked_run(ctx.threads, &off, &reference));
        let secs = t.elapsed().as_secs_f64();
        wall.push(secs);
        if let Some(s) = s {
            rate.push(s.events_total as f64 / secs);
            last = Some(s);
        }
    });
    let rss = ops.run("peak RSS", peak_rss_mb).unwrap_or(0.0);
    let s = last.unwrap_or_default();
    Ok(Report {
        metrics: crate::layers::end_to_end([
            median_of(&wall),
            median_of(&setup),
            median_of(&rate),
            rss,
            s.signaling_reduction,
            s.session_survival,
        ]),
        ops,
        samples: vec![
            Samples::new("wall_s", wall),
            Samples::new("setup_s", setup),
            Samples::new("events_per_s", rate),
        ],
        inputs: vec![("seed", "fixed: ext_chaos has no public seed".into())],
        ..Report::default()
    })
}

pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let reference = artifact(EXPERIMENT)?;
    let mut ops = Ops::default();
    let mut tracer = Tracer::new();
    let mut passes = Vec::new();
    repeat_for(ctx.seconds, 1, |pass| {
        let m = tracer.span("bench.pass", |tr| {
            trace_pass(ctx, tr, &mut ops, &reference, pass as u64)
        });
        passes.push(m);
    });
    let metrics = crate::layers::median_metrics(&passes);
    Ok(Report {
        gap: crate::layers::gap_note(&metrics, CHAOS_GAP),
        metrics,
        ops,
        inputs: vec![("seed", "fixed: ext_chaos has no public seed".into())],
        spans: Some(tracer.spans().to_vec()),
        ..Report::default()
    })
}

/// A full call in span `label`, byte-compared with the artifact.
fn traced_experiment(
    tr: &mut Tracer,
    ops: &mut Ops,
    label: &'static str,
    threads: usize,
    obs: &Recorder,
    reference: &[u8],
) -> Option<(ExtChaos, usize)> {
    let run = || sc_emu::ext_chaos::run_with(threads, obs);
    crate::traced_call(tr, ops, label, run, to_json, |_, json| {
        same_bytes(EXPERIMENT, reference, json.as_bytes())
    })
}

fn trace_pass(
    ctx: &Ctx,
    tr: &mut Tracer,
    ops: &mut Ops,
    reference: &[u8],
    pass: u64,
) -> Vec<Metric> {
    let off = Recorder::disabled();
    let serial = traced_experiment(tr, ops, "emu.experiment_serial", 1, &off, reference);
    let serial_wall = tr.last("emu.experiment_serial");
    let serialize_s = tr.last("emu.serialize");
    traced_experiment(
        tr,
        ops,
        "emu.experiment_parallel",
        ctx.threads,
        &off,
        reference,
    );
    let parallel_wall = tr.last("emu.experiment_parallel");

    let net = tr.span("netsim.isl_build", |_| probe::build_isl());
    let setup_serial = tr.last("netsim.isl_build");
    let hops = tr.span("netsim.route_probe", |_| {
        probe::route_probe(&net, ctx.seed ^ pass, ROUTE_PROBE_CALLS)
    });
    ops.run("route probe found paths", || {
        ensure(hops > 0, || "no path resolved".into())
    });
    let route_us_per_call = tr.last("netsim.route_probe") * 1e6 / ROUTE_PROBE_CALLS as f64;

    let rec = Recorder::new();
    traced_experiment(tr, ops, "emu.experiment_recorder", 1, &rec, reference);
    let recorder_wall = tr.last("emu.experiment_recorder");
    let (snap, sidecar) = tr.span("obs.snapshot_json", |_| {
        let snap = rec.snapshot();
        let json = snap.to_json(EXPERIMENT);
        (snap, json)
    });
    let tx = snap.counter("netsim.sim.transmissions");

    let (s, result_bytes) = serial.map_or((Sim::default(), 0), |(out, n)| (sim(&out), n));
    LayerInputs {
        threads: ctx.threads,
        serial_wall,
        parallel_wall,
        setup_serial,
        setup_is_named: true,
        route_calls: s.events_total,
        route_us_per_call,
        retransmission_share: snap.counter("netsim.sim.retransmissions") as f64 / tx.max(1) as f64,
        partition_retries: snap.counter("netsim.sim.partition_retries"),
        recorder_wall,
        snapshot_json_s: tr.last("obs.snapshot_json"),
        sidecar_bytes: sidecar.len() as u64,
        serialize_s,
        result_bytes: result_bytes as u64,
        sim: s,
        ..LayerInputs::default()
    }
    .metrics()
}
