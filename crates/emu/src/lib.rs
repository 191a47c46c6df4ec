//! Experiment harness: one module per table/figure of the paper's
//! evaluation, each with a `run()` entry point returning a serializable
//! result and a text renderer that prints the same rows/series the paper
//! reports.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig05`] | Fig. 5b — registration latency through GEO transparent pipes |
//! | [`fig07`] | Fig. 7 — satellite CPU breakdown by core function |
//! | [`fig08`] | Fig. 8 — signaling latency vs. load on satellite hardware |
//! | [`fig10`] | Fig. 10 — signaling storms: 4 options × 4 constellations |
//! | [`fig12`] | Fig. 12 — temporal dynamics of one satellite over an orbit |
//! | [`fig13`] | Fig. 13 — failure-process inputs: satellite decay + frame-error bursts |
//! | [`table3`] | Table 3 — geospatial cell sizes per constellation |
//! | [`fig17`] | Fig. 17 — prototype latency/CPU: 5 solutions × 3 procedures |
//! | [`fig18`] | Fig. 18 — ABE micro-bench + geospatial relay ideal vs. J4 |
//! | [`fig19`] | Fig. 19 — state leakage under hijack / man-in-the-middle |
//! | [`fig20`] | Fig. 20 — signaling overhead: 5 solutions × 4 constellations |
//! | [`table4`] | Table 4 — SpaceCore's signaling reduction factors |
//! | [`fig21`] | Fig. 21 — user-level ping/TCP stalling in satellite mobility |
//!
//! Every experiment is deterministic (seeded), emits JSON via `serde`,
//! and is exercised by a binary (`cargo run -p sc-emu --bin figNN`).
//!
//! Sweeps fan independent cells out over the [`engine`] worker pool
//! (`SC_EMU_THREADS` overrides the worker count); results are ordered
//! deterministically, so the emitted JSON is bit-identical to a
//! single-threaded run. Binaries report wall-clock and thread count on
//! stderr via [`report::timed`].
//!
//! Every binary can also emit a deterministic `sc-obs` telemetry
//! sidecar ([`obs::ObsSink`], enabled by `--obs-out <path>` or
//! `SC_OBS=1`): sorted, byte-stable JSON spanning the netsim DES, the
//! 5G signaling paths, the crypto layer, and SpaceCore itself. Parallel
//! sweeps record through per-cell child recorders merged in input-slot
//! order ([`engine::parallel_map_obs_with`]), so the sidecar is
//! byte-identical across thread counts too. Schema and metric registry:
//! `docs/TELEMETRY.md`.

pub mod churn;
pub mod engine;
pub mod ext_anchor;
pub mod ext_chaos;
pub mod ext_chaosload;
pub mod ext_iot;
pub mod ext_mload;
pub mod ext_resilience;
pub mod ext_scaling;
pub mod fig05;
pub mod fig07;
pub mod fig08;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod obs;
pub mod report;
pub mod table3;
pub mod table4;
