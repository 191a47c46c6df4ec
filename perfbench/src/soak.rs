//! The two million-UE soaks, `mload` and `chaosload`: one engine, two
//! configurations, timed through their public `run_config_with`.

use crate::check::{ensure, same_bytes, Ops};
use crate::probe;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::{artifact, median_of, peak_rss_mb, repeat_for, Ctx, Report, Samples};
use sc_emu::ext_chaosload::{ChaosloadConfig, ExtChaosload};
use sc_emu::ext_mload::{ExtMload, MloadConfig};
use sc_obs::Recorder;
use std::time::Instant;

/// Simulated outcomes read from one result.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    pub events_total: u64,
    pub events_measured: u64,
    pub signaling_reduction: f64,
    pub session_survival: f64,
    pub piggyback_share: f64,
    pub reattach_yield: f64,
    pub budget_exhausted: u64,
    pub deferred: u64,
    pub shed_crossings: u64,
    pub surge_amplitude: f64,
    pub reattach_p99_sim_ms: f64,
}

/// What the benchmark needs from one soak experiment.
pub trait Soak {
    /// Experiment name: `results/<EXPERIMENT>.json` is the artifact.
    const EXPERIMENT: &'static str;
    /// Does the experiment's set-up classify every UE's region?
    const REGION_OF: bool;
    type Cfg: Clone;
    type Out;

    /// The full configuration at workload seed `seed`.
    fn config(seed: u64) -> Self::Cfg;
    /// The seed of the checked-in artifact.
    fn default_seed() -> u64;
    fn seed(cfg: &Self::Cfg) -> u64;
    fn total_ues(cfg: &Self::Cfg) -> usize;
    fn shards(cfg: &Self::Cfg) -> usize;
    /// The same configuration cut to a 1 s horizon: set-up plus one
    /// simulated second.
    fn cut_to_setup(cfg: &Self::Cfg) -> Self::Cfg;
    fn run(threads: usize, obs: &Recorder, cfg: &Self::Cfg) -> Self::Out;
    /// Serialize exactly as the experiment binary writes its artifact.
    fn to_json(out: &Self::Out) -> String;
    fn sim(out: &Self::Out) -> Sim;
    /// The experiment's acceptance SLOs.
    fn slo(out: &Self::Out) -> Result<(), String>;
    /// UEs per region, as the result reports them (empty when the
    /// experiment does not classify regions).
    fn regions(out: &Self::Out) -> Vec<(&'static str, u64)>;
}

pub struct Mload;
pub struct Chaosload;

fn cut(load: &MloadConfig) -> MloadConfig {
    MloadConfig {
        warmup_s: 0.0,
        measure_s: 1.0,
        ..load.clone()
    }
}

fn to_json_pretty<T: serde::Serialize>(out: &T) -> String {
    serde_json::to_string_pretty(out).expect("results serialize")
}

impl Soak for Mload {
    const EXPERIMENT: &'static str = "ext_mload";
    const REGION_OF: bool = true;
    type Cfg = MloadConfig;
    type Out = ExtMload;

    fn config(seed: u64) -> MloadConfig {
        MloadConfig {
            seed,
            ..MloadConfig::full()
        }
    }
    fn default_seed() -> u64 {
        MloadConfig::full().seed
    }
    fn seed(cfg: &MloadConfig) -> u64 {
        cfg.seed
    }
    fn total_ues(cfg: &MloadConfig) -> usize {
        cfg.total_ues
    }
    fn shards(cfg: &MloadConfig) -> usize {
        cfg.shards
    }
    fn cut_to_setup(cfg: &MloadConfig) -> MloadConfig {
        cut(cfg)
    }
    fn run(threads: usize, obs: &Recorder, cfg: &MloadConfig) -> ExtMload {
        sc_emu::ext_mload::run_config_with(threads, obs, cfg)
    }
    fn to_json(out: &ExtMload) -> String {
        to_json_pretty(out)
    }
    fn sim(r: &ExtMload) -> Sim {
        Sim {
            events_total: r.events_total,
            events_measured: r.events_measured,
            signaling_reduction: r.signaling_reduction,
            // No failure is injected, so no session is dropped; the
            // chaosload convention for zero drops is full survival.
            session_survival: 1.0,
            piggyback_share: r.piggybacked_arrivals as f64 / r.arrivals.max(1) as f64,
            ..Sim::default()
        }
    }
    fn slo(_: &ExtMload) -> Result<(), String> {
        Ok(())
    }
    fn regions(r: &ExtMload) -> Vec<(&'static str, u64)> {
        r.regions.iter().map(|row| (row.region, row.ues)).collect()
    }
}

impl Soak for Chaosload {
    const EXPERIMENT: &'static str = "ext_chaosload";
    const REGION_OF: bool = false;
    type Cfg = ChaosloadConfig;
    type Out = ExtChaosload;

    fn config(seed: u64) -> ChaosloadConfig {
        let mut cfg = ChaosloadConfig::full();
        cfg.load.seed = seed;
        cfg
    }
    fn default_seed() -> u64 {
        ChaosloadConfig::full().load.seed
    }
    fn seed(cfg: &ChaosloadConfig) -> u64 {
        cfg.load.seed
    }
    fn total_ues(cfg: &ChaosloadConfig) -> usize {
        cfg.load.total_ues
    }
    fn shards(cfg: &ChaosloadConfig) -> usize {
        cfg.load.shards
    }
    fn cut_to_setup(cfg: &ChaosloadConfig) -> ChaosloadConfig {
        ChaosloadConfig {
            load: cut(&cfg.load),
            ..cfg.clone()
        }
    }
    fn run(threads: usize, obs: &Recorder, cfg: &ChaosloadConfig) -> ExtChaosload {
        sc_emu::ext_chaosload::run_config_with(threads, obs, cfg)
    }
    fn to_json(out: &ExtChaosload) -> String {
        to_json_pretty(out)
    }
    fn sim(r: &ExtChaosload) -> Sim {
        Sim {
            events_total: r.events_total,
            events_measured: r.events_measured,
            signaling_reduction: r.signaling_reduction,
            session_survival: r.session_survival,
            piggyback_share: r.piggybacked_arrivals as f64 / r.arrivals.max(1) as f64,
            reattach_yield: r.sessions_reestablished as f64 / r.reattach_attempts.max(1) as f64,
            budget_exhausted: r.budget_exhausted,
            deferred: r.deferred_handovers + r.deferred_releases + r.deferred_establishments,
            shed_crossings: r.shed_crossings,
            surge_amplitude: r.surge_amplitude,
            reattach_p99_sim_ms: r.reattach_ms_p99.unwrap_or(0.0),
        }
    }
    fn slo(r: &ExtChaosload) -> Result<(), String> {
        ensure(r.session_survival >= 0.98, || {
            format!("session_survival {} below the 0.98 SLO", r.session_survival)
        })?;
        ensure(r.surge_amplitude <= 3.0, || {
            format!("surge_amplitude {} above the 3.0 SLO", r.surge_amplitude)
        })
    }
    fn regions(_: &ExtChaosload) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// A set-up run precedes two of every four full calls, one per seed.
/// Set-up costs most of a full call and `setup_s` has the widest bound,
/// so the rest of the run's time goes to `wall_s` samples.
fn setup_before(call: usize) -> bool {
    call % 4 < 2
}

/// The held-out workload seed for `--seed n`: a hash of the default
/// seed and `n`, never the default itself in practice.
pub fn held_out_seed(default_seed: u64, n: u64) -> u64 {
    sc_emu::churn::mix64(default_seed ^ sc_emu::churn::mix64(n.wrapping_add(1)))
}

/// One full experiment call: run, serialize, and byte-compare with
/// `reference` (plus the SLOs). Returns the simulated outcomes.
fn checked_run<S: Soak>(
    threads: usize,
    obs: &Recorder,
    cfg: &S::Cfg,
    reference: Option<&[u8]>,
) -> Result<Sim, String> {
    let out = S::run(threads, obs, cfg);
    let json = S::to_json(&out);
    let reference = reference.ok_or("no reference result for this seed")?;
    same_bytes(S::EXPERIMENT, reference, json.as_bytes())?;
    S::slo(&out)?;
    Ok(S::sim(&out))
}

/// End-to-end run: timed calls at `ctx.threads` workers, alternating
/// the artifact's seed (byte-compared with `results/`) and the
/// held-out seed (byte-compared with a serial call at that seed).
pub fn untraced<S: Soak>(ctx: &Ctx) -> Result<Report, String> {
    let off = Recorder::disabled();
    let artifact = artifact(S::EXPERIMENT)?;
    let default_cfg = S::config(S::default_seed());
    let held_cfg = S::config(held_out_seed(S::default_seed(), ctx.seed));
    let mut ops = Ops::default();

    let held_ref = ops.run("serial reference at the held-out seed", || {
        let out = S::run(1, &off, &held_cfg);
        S::slo(&out)?;
        Ok(S::to_json(&out).into_bytes())
    });

    let mut wall = Vec::new();
    let mut setup = Vec::new();
    let mut rate = Vec::new();
    let mut held_sim = None;
    let mut probe_refs: [Option<String>; 2] = [None, None];
    repeat_for(ctx.seconds, 2, |i| {
        let held = i % 2 == 1;
        let (cfg, reference) = if held {
            (&held_cfg, held_ref.as_deref())
        } else {
            (&default_cfg, Some(artifact.as_slice()))
        };
        if setup_before(i) {
            let probe_cfg = S::cut_to_setup(cfg);
            let t = Instant::now();
            let probe = ops.run("1 s horizon set-up run", || {
                let out = S::run(ctx.threads, &off, &probe_cfg);
                let events = S::sim(&out).events_total;
                ensure(events > 0, || "set-up run processed no events".into())?;
                Ok(S::to_json(&out))
            });
            setup.push(t.elapsed().as_secs_f64());
            match (&probe_refs[usize::from(held)], probe) {
                (Some(first), Some(json)) => {
                    ops.run("set-up run determinism", || {
                        same_bytes("set-up run", first.as_bytes(), json.as_bytes())
                    });
                }
                (None, json) => probe_refs[usize::from(held)] = json,
                (Some(_), None) => {}
            }
        }

        let t = Instant::now();
        let sim = ops.run(S::EXPERIMENT, || {
            checked_run::<S>(ctx.threads, &off, cfg, reference)
        });
        let secs = t.elapsed().as_secs_f64();
        wall.push(secs);
        if let Some(sim) = sim {
            rate.push(sim.events_total as f64 / secs);
            if held {
                held_sim = Some(sim);
            }
        }
    });

    let rss = ops.run("peak RSS", peak_rss_mb).unwrap_or(0.0);
    let sim = held_sim.unwrap_or_default();
    Ok(Report {
        metrics: crate::layers::end_to_end([
            median_of(&wall),
            median_of(&setup),
            median_of(&rate),
            rss,
            sim.signaling_reduction,
            sim.session_survival,
        ]),
        ops,
        samples: vec![
            Samples::new("wall_s", wall),
            Samples::new("setup_s", setup),
            Samples::new("events_per_s", rate),
        ],
        inputs: vec![
            ("default_seed", S::default_seed().to_string()),
            ("held_out_seed", S::seed(&held_cfg).to_string()),
            ("total_ues", S::total_ues(&default_cfg).to_string()),
            ("shards", S::shards(&default_cfg).to_string()),
        ],
        ..Report::default()
    })
}

/// Traced run: one pass per budget slice, each pass timing the layers
/// at one worker thread, at the artifact's seed.
pub fn traced<S: Soak>(ctx: &Ctx) -> Result<Report, String> {
    let artifact = artifact(S::EXPERIMENT)?;
    let cfg = S::config(S::default_seed());
    let mut ops = Ops::default();
    let mut tracer = Tracer::new();
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    repeat_for(ctx.seconds, 1, |pass| {
        let m = tracer.span("bench.pass", |tr| {
            trace_pass::<S>(ctx, tr, &mut ops, &cfg, &artifact, pass as u64)
        });
        passes.push(m);
    });
    let metrics = crate::layers::median_metrics(&passes);
    Ok(Report {
        gap: crate::layers::gap_note(&metrics, crate::layers::SOAK_GAP),
        metrics,
        ops,
        inputs: vec![
            ("default_seed", S::default_seed().to_string()),
            ("total_ues", S::total_ues(&cfg).to_string()),
            ("shards", S::shards(&cfg).to_string()),
        ],
        spans: Some(tracer.spans().to_vec()),
        ..Report::default()
    })
}

/// A full call in span `label`, byte-compared with the artifact and
/// held to the SLOs.
fn traced_experiment<S: Soak>(
    tr: &mut Tracer,
    ops: &mut Ops,
    label: &'static str,
    threads: usize,
    obs: &Recorder,
    cfg: &S::Cfg,
    artifact: &[u8],
) -> Option<(S::Out, usize)> {
    let run = || S::run(threads, obs, cfg);
    crate::traced_call(tr, ops, label, run, S::to_json, |out, json| {
        same_bytes(S::EXPERIMENT, artifact, json.as_bytes())?;
        S::slo(out)
    })
}

fn trace_pass<S: Soak>(
    ctx: &Ctx,
    tr: &mut Tracer,
    ops: &mut Ops,
    cfg: &S::Cfg,
    artifact: &[u8],
    pass: u64,
) -> Vec<Metric> {
    let off = Recorder::disabled();
    let serial = traced_experiment::<S>(tr, ops, "emu.experiment_serial", 1, &off, cfg, artifact);
    let serial_wall = tr.last("emu.experiment_serial");
    let serialize_s = tr.last("emu.serialize");
    traced_experiment::<S>(
        tr,
        ops,
        "emu.experiment_parallel",
        ctx.threads,
        &off,
        cfg,
        artifact,
    );
    let parallel_wall = tr.last("emu.experiment_parallel");

    let probe_cfg = S::cut_to_setup(cfg);
    tr.span("emu.setup_serial", |_| {
        ops.run("1 s horizon set-up run", || {
            let events = S::sim(&S::run(1, &off, &probe_cfg)).events_total;
            ensure(events > 0, || "set-up run processed no events".into())
        })
    });
    let setup_serial = tr.last("emu.setup_serial");

    let regions = tr.span("bench.setup_replay", |tr| {
        probe::setup_replay(
            tr,
            S::total_ues(cfg),
            S::seed(cfg),
            S::shards(cfg),
            S::REGION_OF,
        )
    });
    if let (true, Some((out, _))) = (S::REGION_OF, &serial) {
        ops.run("replayed regions match the result", || {
            probe::check_regions(&regions, &S::regions(out))
        });
    }

    let des_seed = ctx.seed ^ pass;
    let mark = tr.mark();
    let des_events = tr.span("netsim.des_probe", |tr| {
        probe::des_probe(
            tr,
            des_seed,
            S::total_ues(cfg) / S::shards(cfg),
            S::shards(cfg),
        )
    });
    let des_s = tr.total_since(mark, "netsim.des_drain");

    let rec = Recorder::new();
    traced_experiment::<S>(tr, ops, "emu.experiment_recorder", 1, &rec, cfg, artifact);
    let recorder_wall = tr.last("emu.experiment_recorder");
    let sidecar = tr.span("obs.snapshot_json", |_| {
        rec.snapshot().to_json(S::EXPERIMENT)
    });
    ops.run("telemetry sidecar", || {
        let telemetry = crate::artifact(&format!("{}.telemetry", S::EXPERIMENT))?;
        same_bytes("sidecar", &telemetry, sidecar.as_bytes())
    });

    let (sim, result_bytes) = match serial {
        Some((out, bytes)) => (S::sim(&out), bytes),
        None => (Sim::default(), 0),
    };
    crate::layers::LayerInputs {
        threads: ctx.threads,
        serial_wall,
        parallel_wall,
        setup_serial,
        sample_ues: tr.last("dataset.sample_ues"),
        region_of: if S::REGION_OF {
            tr.last("dataset.region_of")
        } else {
            0.0
        },
        region_of_calls: if S::REGION_OF {
            S::total_ues(cfg) as u64
        } else {
            0
        },
        cell_of_point: tr.last("geo.cell_of_point"),
        des_events_per_s: des_events as f64 / des_s,
        recorder_wall,
        snapshot_json_s: tr.last("obs.snapshot_json"),
        sidecar_bytes: sidecar.len() as u64,
        serialize_s,
        result_bytes: result_bytes as u64,
        sim,
        ..crate::layers::LayerInputs::default()
    }
    .metrics()
}
