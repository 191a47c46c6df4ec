//! Telemetry sidecar plumbing for the experiment binaries.
//!
//! Every binary builds an [`ObsSink`] first thing in `main`. Telemetry
//! is **off by default** — the sink hands out a disabled
//! [`sc_obs::Recorder`] and [`ObsSink::write`] is a no-op, so the
//! regenerated `results/*.json` stay byte-identical to untelemetered
//! runs. It turns on in two ways:
//!
//! * `--obs-out <path>` (or `--obs-out=<path>`) on the command line
//!   names the sidecar file explicitly;
//! * the `SC_OBS` environment variable set to any non-empty value other
//!   than `"0"` selects the default sidecar path
//!   `results/<experiment>.telemetry.json` (the `SC_OBS=1` mode of
//!   `scripts/tier1.sh`).
//!
//! The sidecar schema is documented in `docs/TELEMETRY.md`. Emission is
//! byte-stable: same seed ⇒ same bytes, independent of `SC_EMU_THREADS`
//! (see [`crate::engine::parallel_map_obs_with`]).

use sc_obs::Recorder;
use std::path::PathBuf;

/// The whole `main` of an experiment binary: resolve the telemetry
/// sink, time the run, print the rendered table, write
/// `results/<experiment>.json`, and flush the sidecar. Every
/// `crates/emu/src/bin/*.rs` delegates here so the sidecar plumbing and
/// result-file layout live in exactly one place.
///
/// `run` receives the sink's recorder (disabled unless `--obs-out` /
/// `SC_OBS` asked for a sidecar), so plain experiments can ignore it
/// and telemetered ones thread it through.
pub fn run_cli<R: serde::Serialize>(
    experiment: &'static str,
    run: impl FnOnce(&Recorder) -> R,
    render: impl FnOnce(&R) -> String,
) {
    let sink = ObsSink::from_env(experiment);
    let rec = sink.recorder();
    let (r, timing) = crate::report::timed(experiment, || run(&rec));
    timing.eprint();
    println!("{}", render(&r));
    let json = serde_json::to_string_pretty(&r).expect("serialize");
    let path = format!("results/{experiment}.json");
    if let Err(e) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json)) {
        eprintln!("{experiment}: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
    sink.write();
}

/// Where (and whether) one experiment binary writes its telemetry.
#[derive(Debug, Clone)]
pub struct ObsSink {
    experiment: &'static str,
    recorder: Recorder,
    out: Option<PathBuf>,
}

impl ObsSink {
    /// Resolve from the process arguments and environment (see the
    /// module docs for the precedence rules).
    pub fn from_env(experiment: &'static str) -> Self {
        Self::from_args(
            experiment,
            std::env::args().skip(1),
            std::env::var("SC_OBS").ok(),
        )
    }

    /// Testable core of [`Self::from_env`]: `args` are the process
    /// arguments (binary name already stripped), `sc_obs` the `SC_OBS`
    /// environment value, if any.
    pub fn from_args(
        experiment: &'static str,
        args: impl Iterator<Item = String>,
        sc_obs: Option<String>,
    ) -> Self {
        let mut out: Option<PathBuf> = None;
        let mut args = args;
        while let Some(a) = args.next() {
            if a == "--obs-out" {
                out = args.next().map(PathBuf::from);
            } else if let Some(p) = a.strip_prefix("--obs-out=") {
                out = Some(PathBuf::from(p));
            }
        }
        if out.is_none() && sc_obs.is_some_and(|v| !v.is_empty() && v != "0") {
            out = Some(PathBuf::from(format!(
                "results/{experiment}.telemetry.json"
            )));
        }
        let recorder = if out.is_some() {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        Self {
            experiment,
            recorder,
            out,
        }
    }

    /// The recorder to thread into the experiment (disabled when no
    /// sidecar was requested — recording through it is a no-op).
    pub fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// Is a sidecar going to be written?
    pub fn enabled(&self) -> bool {
        self.out.is_some()
    }

    /// Write the sidecar. No-op when telemetry is disabled; I/O errors
    /// are reported on stderr, never panicked on (telemetry must not
    /// take an experiment down).
    pub fn write(&self) {
        let Some(path) = &self.out else { return };
        let json = self.recorder.snapshot().to_json(self.experiment);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("obs: cannot create {}: {e}", dir.display());
                    return;
                }
            }
        }
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("obs: cannot write {}: {e}", path.display()),
        }
    }
}

/// Map a Figure 9 procedure onto the 3-node replay topology the
/// telemetry miniatures use — UE = node 0, satellite radio = node 1,
/// ground segment = node 2 — keeping only the messages that actually
/// cross nodes (core-internal legs collapse onto the ground node).
pub fn replay_steps(p: &sc_fiveg::messages::Procedure) -> Vec<sc_netsim::sim::SimStep> {
    fn node(e: sc_fiveg::messages::Entity) -> usize {
        use sc_fiveg::messages::Entity;
        match e {
            Entity::Ue => 0,
            Entity::Ran | Entity::RanTarget => 1,
            _ => 2,
        }
    }
    p.steps
        .iter()
        .filter(|s| node(s.from) != node(s.to))
        .map(|s| sc_netsim::sim::SimStep {
            label: s.label,
            from: node(s.from),
            to: node(s.to),
        })
        .collect()
}

/// Map a procedure onto the 2-node *satellite-local* replay topology —
/// UE = node 0, everything else (radio and core, co-located on the
/// serving satellite) = node 1. The stateless contrast to
/// [`replay_steps`]: no leg ever touches the ground segment, so the
/// only hop spans a traced replay emits are UE↔satellite.
pub fn replay_steps_local(p: &sc_fiveg::messages::Procedure) -> Vec<sc_netsim::sim::SimStep> {
    fn node(e: sc_fiveg::messages::Entity) -> usize {
        match e {
            sc_fiveg::messages::Entity::Ue => 0,
            _ => 1,
        }
    }
    p.steps
        .iter()
        .filter(|s| node(s.from) != node(s.to))
        .map(|s| sc_netsim::sim::SimStep {
            label: s.label,
            from: node(s.from),
            to: node(s.to),
        })
        .collect()
}

/// Replay `steps` of `proc` through `sim` under one causal root span:
/// opens the procedure's `fiveg.proc.*` span (tagged with the `route`
/// it takes — e.g. `"ground"` vs `"local"` vs `"geo-pipe"`), threads it
/// as the parent of the `netsim.sim.procedure` span
/// ([`sc_netsim::sim::ProcedureSim::run_traced`]), and closes it at the
/// outcome latency. With telemetry disabled this is exactly
/// `sim.run(steps, loss)`.
pub fn replay_traced(
    obs: &Recorder,
    sim: &sc_netsim::sim::ProcedureSim,
    proc: &sc_fiveg::messages::Procedure,
    steps: &[sc_netsim::sim::SimStep],
    route: &'static str,
    loss: &mut sc_netsim::failure::LossProcess,
) -> sc_netsim::sim::SimOutcome {
    let root = proc.open_span(obs, 0.0, vec![("route", sc_obs::FieldValue::from(route))]);
    let outcome = sim.run_traced(steps, loss, Some(root));
    obs.span_close(root, outcome.latency_ms);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> std::vec::IntoIter<String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn disabled_by_default() {
        let s = ObsSink::from_args("figxx", args(&[]), None);
        assert!(!s.enabled());
        assert!(!s.recorder().enabled());
        s.write(); // no-op, no panic
    }

    #[test]
    fn obs_out_flag_enables() {
        let s = ObsSink::from_args("figxx", args(&["--obs-out", "/tmp/t.json"]), None);
        assert!(s.enabled());
        assert!(s.recorder().enabled());
        let s2 = ObsSink::from_args("figxx", args(&["--obs-out=/tmp/t.json"]), None);
        assert!(s2.enabled());
    }

    #[test]
    fn sc_obs_env_selects_default_path() {
        let s = ObsSink::from_args("fig05", args(&[]), Some("1".into()));
        assert!(s.enabled());
        assert_eq!(
            s.out.as_deref(),
            Some(std::path::Path::new("results/fig05.telemetry.json"))
        );
        assert!(!ObsSink::from_args("fig05", args(&[]), Some("0".into())).enabled());
        assert!(!ObsSink::from_args("fig05", args(&[]), Some(String::new())).enabled());
    }

    #[test]
    fn local_replay_never_leaves_the_satellite() {
        let c2 = sc_fiveg::messages::Procedure::build(
            sc_fiveg::messages::ProcedureKind::SessionEstablishment,
        );
        let local = replay_steps_local(&c2);
        assert!(!local.is_empty());
        for s in &local {
            assert!(s.from <= 1 && s.to <= 1, "{s:?}");
            assert_ne!(s.from, s.to);
        }
        // Strictly fewer cross-node legs than the ground-routed replay:
        // the RAN↔core messages collapse onto the satellite node.
        assert!(local.len() < replay_steps(&c2).len());
    }

    #[test]
    fn replay_traced_roots_the_whole_exchange() -> Result<(), String> {
        let obs = Recorder::new();
        let c2 = sc_fiveg::messages::Procedure::build(
            sc_fiveg::messages::ProcedureKind::SessionEstablishment,
        );
        let steps = replay_steps_local(&c2);
        let mut g = sc_netsim::topo::Graph::new(2);
        g.add_bidirectional(0, 1, 2.0);
        let nf = sc_netsim::failure::NodeFailures::none();
        let sim =
            sc_netsim::sim::ProcedureSim::new(&g, &nf, sc_netsim::sim::SimConfig::default())
                .with_recorder(obs.clone());
        let mut loss = sc_netsim::failure::LossProcess::new(0.0, 1);
        let outcome = replay_traced(&obs, &sim, &c2, &steps, "local", &mut loss);
        assert!(outcome.completed);

        let snap = obs.snapshot();
        let root = snap
            .spans
            .iter()
            .find(|s| s.kind == "fiveg.proc.c2_session_establishment")
            .ok_or("missing fiveg root span")?;
        assert_eq!(root.parent, None);
        assert_eq!(root.end, Some(outcome.latency_ms));
        assert!(root
            .fields
            .iter()
            .any(|(k, v)| *k == "route" && *v == sc_obs::FieldValue::from("local")));
        let proc = snap
            .spans
            .iter()
            .find(|s| s.kind == "netsim.sim.procedure")
            .ok_or("missing netsim procedure span")?;
        assert_eq!(proc.parent, Some(root.id), "sim tree hangs off the 5G root");

        // Disabled recorder: same outcome, zero telemetry.
        let off = Recorder::disabled();
        let sim_off =
            sc_netsim::sim::ProcedureSim::new(&g, &nf, sc_netsim::sim::SimConfig::default());
        let mut loss2 = sc_netsim::failure::LossProcess::new(0.0, 1);
        let plain = replay_traced(&off, &sim_off, &c2, &steps, "local", &mut loss2);
        assert_eq!(plain.latency_ms, outcome.latency_ms);
        assert!(off.snapshot().is_empty());
        Ok(())
    }

    #[test]
    fn replay_steps_drop_core_internal_legs() {
        let c1 = sc_fiveg::messages::Procedure::build(
            sc_fiveg::messages::ProcedureKind::InitialRegistration,
        );
        let steps = replay_steps(&c1);
        assert!(!steps.is_empty());
        assert!(steps.len() < c1.message_count());
        for s in &steps {
            assert_ne!(s.from, s.to);
            assert!(s.from <= 2 && s.to <= 2);
        }
    }
}
