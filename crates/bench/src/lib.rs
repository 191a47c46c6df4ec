//! Criterion micro-benches of single hot paths.
//!
//! The library itself is intentionally empty — everything measurable
//! lives in `benches/`: the fig18 kernels (`fig18a_abe`,
//! `fig18b_relay`), the dataset and cell builders (`table2_dataset`,
//! `table3_cells`), the DESIGN.md ablations (`ablation_routing`,
//! `ablation_cell_granularity`, `ablation_rollback`,
//! `ablation_visibility`), and `des_queue`, the calendar-queue vs.
//! binary-heap scheduler head-to-head on the hold, fig10-shaped and
//! ext_chaos-shaped workloads. Run one with
//! `cargo bench -p sc-bench --bench fig18a_abe`, or everything with
//! `cargo bench -p sc-bench`. Use these for before/after work on a
//! single hot path.
//!
//! Whole experiment runs are timed end to end and per layer by
//! `perfbench/` (declared by `BENCHMARK.json`, see
//! `perfbench/README.md` and `docs/BENCHMARKS.md`).
//!
//! No file here reads a wall clock: Criterion does the timing, and
//! sc-audit's R2 rule keeps it that way (the allowlist lives in
//! `crates/audit`).
