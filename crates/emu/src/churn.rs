//! The sharded churn engine behind `ext_mload` and `ext_chaosload`, and
//! its stateless randomness primitives. One engine, two configs: in a
//! stateless core a satellite crash is just more churn, so the
//! failure-free million-UE soak is the chaos soak with an empty
//! [`FailureTimeline`].
//!
//! `run` draws `total_ues` UEs from the World-Bank population mixture,
//! pins each to its geospatial cell on the Starlink grid (72 × 22, the
//! paper's natural shard key), partitions the cells into contiguous
//! shards ([`ShardMap`]), and drives every UE through session arrivals,
//! RRC releases, satellite sweeps and cell crossings on one
//! calendar-queue DES per shard. The config's timeline adds crashes,
//! feeder-link flaps and loss bursts, replayed **per shard** by a
//! [`ChaosCursor`] on the shard's own clock (telemetry disabled so its
//! counters are not multiplied by the shard count).
//!
//! Each shard's events are drained in batch windows
//! ([`EventQueue::drain_until`]); every follow-up delay is at least
//! [`MIN_DELAY_S`] ≥ one window, so batch processing is event-for-event
//! identical to interleaved processing. Chaos timestamps are quantized
//! to the integer-µs grid on insert, so a crash on a batch boundary is
//! processed on the same tick whatever the batch width.
//!
//! The engines' determinism contract — results and telemetry
//! byte-identical across `SC_EMU_THREADS` and shard counts — rests on
//! every random draw being a *pure hash* of `(seed, entity, draw#)`
//! rather than a stateful RNG: a UE's own events are totally ordered by
//! its shard's DES, so its draw counter sequence (and therefore every
//! value) is identical under any shard layout or thread schedule. Every
//! reported quantity is a sum or bucket merge over disjoint cell ranges,
//! and every histogram observation is integer-valued so float sums stay
//! associative. Shard recorders carry only counters, histograms and
//! counter series, merged in slot order by
//! [`crate::engine::parallel_map_obs_with`]; events, spans and gauges
//! would encode the shard layout, and the per-shard DES queues stay
//! recorder-free because their rung/spill counters depend on it.

use sc_dataset::population::{PopulationModel, Region};
use sc_dataset::workload::WorkloadParams;
use sc_geo::cells::CellGrid;
use sc_geo::sphere::GeoPoint;
use sc_netsim::chaos::{ChaosAction, ChaosCursor, FailureTimeline};
use sc_netsim::des::EventQueue;
use sc_obs::{Histogram, Recorder};
use spacecore::recovery::{RecoveryCosts, RetryBudget};
use spacecore::shard::{
    cell_at, cell_index, CellLedger, CellStorm, ChaosStats, ProcedureCosts, ShardMap, ShardStats,
};
use std::ops::Range;

/// Churn substrate configuration: population, sharding, windows, seed.
/// `ext_mload` runs it as is ([`MloadConfig::full`] is the million-UE
/// soak the acceptance figures come from, [`MloadConfig::smoke`] the
/// bounded tier-1 variant); `ext_chaosload` wraps it in a
/// [`ChaosloadConfig`].
#[derive(Debug, Clone)]
pub struct MloadConfig {
    /// Live UEs under churn management.
    pub total_ues: usize,
    /// Requested shard count (clamped to the cell count).
    pub shards: usize,
    /// Ramp-in window excluded from every measured quantity, s.
    pub warmup_s: f64,
    /// Measured steady-state window, s.
    pub measure_s: f64,
    /// Root seed for placement and all churn draws.
    pub seed: u64,
    /// Mean interval between geospatial cell crossings per UE, s
    /// (Table 3 cells are hundreds of km wide — crossings are rare).
    pub crossing_interval_s: f64,
}

/// Engine configuration: the churn substrate plus the failure scenario
/// and the robustness policies. [`ChaosloadConfig::zero_fault`] is the
/// failure-free soak; `ext_chaosload` defines the chaos scenarios.
#[derive(Debug, Clone)]
pub struct ChaosloadConfig {
    /// Churn substrate (population, shards, windows, seed).
    pub load: MloadConfig,
    /// Satellites covering the grid; [`ShardMap`] doubles as the static
    /// cell → serving-satellite footprint map (independent of the
    /// execution shard count).
    pub sats: usize,
    /// DES drain-batch width, s (≤ [`MIN_DELAY_S`]; test hook —
    /// results are invariant to it).
    pub batch_window_s: f64,
    /// The failure scenario. Node ids `0..sats` are satellites;
    /// [`Self::gateway`] is the feeder-link ground node.
    pub timeline: FailureTimeline,
    /// Re-establishment deadline: a dropped session survives iff it
    /// re-establishes within this many seconds of the crash.
    pub deadline_s: f64,
    /// Retry-budget policy (pacing slots + backoff).
    pub budget: RetryBudget,
    /// Paced admission on/off. `false` is the thundering-herd contrast:
    /// every dropped UE retries right after detection.
    pub paced: bool,
    /// Overload window extension past the satellite's recovery, s.
    pub overload_hold_s: f64,
}

impl ChaosloadConfig {
    /// `load` on a failure-free sky: an empty timeline, so no session
    /// is ever dropped, deferred or shed and the recovery policies
    /// below never engage.
    pub fn zero_fault(load: MloadConfig) -> Self {
        Self {
            load,
            sats: 1,
            batch_window_s: BATCH_WINDOW_S,
            timeline: FailureTimeline::none(),
            deadline_s: 0.0,
            budget: RetryBudget::paper_defaults(),
            paced: true,
            overload_hold_s: 0.0,
        }
    }

    /// The feeder-link ground node id (satellites are `0..sats`).
    pub fn gateway(&self) -> usize {
        self.sats
    }
}

/// splitmix64 finalizer: the stateless per-UE hash stream.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Uniform `[0, 1)` draw for `(seed, ue, draw#)` — a pure hash, so the
/// value depends only on the UE's own draw counter, never on which
/// shard or thread evaluates it.
pub fn ue_unit(seed: u64, ue: u32, draw: u32) -> f64 {
    let h = mix64(seed ^ mix64(((ue as u64) << 32) | draw as u64));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential draw with mean `mean_s`, clamped to `floor_s` (the
/// engine passes its `MIN_DELAY_S` batch-window contract). The clamp
/// shifts < 1% of the mass for the ≥ 100 s means used here.
pub fn exp_clamped(mean_s: f64, u: f64, floor_s: f64) -> f64 {
    (-mean_s * (1.0 - u).max(1e-12).ln()).max(floor_s)
}

/// Default batch window width; equals the DES calendar day
/// (`EventQueue::BUCKET_WIDTH_S`) so a window never spans day
/// promotions mid-drain. `ChaosloadConfig::batch_window_s` may narrow
/// it: the batching ≡ interleaving contract only needs
/// `batch_window_s <= MIN_DELAY_S`.
pub const BATCH_WINDOW_S: f64 = 1.0;
/// Minimum follow-up delay: every reaction the engine schedules (churn
/// follow-ups, retries, backoffs, deferrals) is at least one full
/// default batch window in the future. Loss *detection* is likewise
/// quantized up to this (the plan-level 200 ms would land retries
/// inside the window that scheduled them).
pub const MIN_DELAY_S: f64 = BATCH_WINDOW_S;
/// Simulated per-message processing cost, µs — the Figure 16b scale of
/// a satellite-local signaling step. Costs are recorded in integer
/// microseconds: integer-valued f64 observations sum exactly, so
/// histogram sidecars stay byte-identical under any shard grouping.
const PER_MSG_US: f64 = 120.0;
/// Width of the per-second window tallies (event rate, storm signaling,
/// gate activity), s. Indexed by event time — deliberately independent
/// of the batch width — and equal to the sc-obs series window, so a
/// window index maps one-to-one onto the series tick grid.
pub(crate) const SLO_WINDOW_S: f64 = 1.0;
/// Resolution of the time-to-re-established slot counts, µs (0.25 s).
const TT_SLOT_US: u64 = 250_000;

/// Region byte → region, in `Region` declaration order (the byte is
/// `Region as u8`).
pub(crate) const REGIONS: [Region; 6] = [
    Region::NorthAmerica,
    Region::SouthCentralAmerica,
    Region::EuropeAsia,
    Region::Africa,
    Region::Oceania,
    Region::Ocean,
];

/// Microsecond tick of a simulation timestamp (the `CellLedger` grid).
fn tick(t_s: f64) -> u64 {
    (t_s * 1e6).round() as u64
}

/// The telemetry names one experiment's run emits under: the
/// `emu.mload.*` or `emu.chaosload.*` table its entry point passes in.
pub(crate) struct Names {
    /// Per-event SpaceCore processing cost, integer µs (histogram).
    pub step_us: &'static str,
    /// Hold time of each measured establishment, ms (histogram).
    pub session_hold_ms: &'static str,
    /// Crash → re-establishment offset, ms (histogram; `None` for a
    /// config that never crashes).
    pub reattach_ms: Option<&'static str>,
    /// Shard-additive churn counters, emitted once from the fold:
    /// events, arrivals, establishments, piggybacked arrivals, releases,
    /// local handovers, idle sweeps, cell crossings, SpaceCore and
    /// legacy messages.
    pub counters: [&'static str; 10],
}

/// One crash in the scenario, resolved from the timeline: when, which
/// satellite, and its footprint (the overload window it opens lives in
/// the matching [`StormWin`]).
#[derive(Debug, Clone)]
pub(crate) struct CrashMeta {
    ev_idx: usize,
    /// Crash time: every session it drops is timed from here.
    pub t_s: f64,
    pub sat: usize,
    pub cells: Range<usize>,
}

/// An overload window bound to the timeline event that opens it: a
/// crash (footprint overloaded until recovery + hold) or a feeder-link
/// drop (the cut-off satellite defers non-essential signaling until
/// realignment + hold — sessions stay up, the control plane backs off).
#[derive(Debug, Clone)]
struct StormWin {
    ev_idx: usize,
    cells: Range<usize>,
    until_s: f64,
}

/// Resolve crash metadata, the overload windows, and the storm-cell
/// membership mask — pure functions of the config, computed identically
/// for every shard.
fn scenario_metas(
    cfg: &ChaosloadConfig,
    coverage: &ShardMap,
    horizon: f64,
) -> (Vec<CrashMeta>, Vec<bool>, Vec<StormWin>) {
    let events = cfg.timeline.events();
    let mut metas = Vec::new();
    let mut storms = Vec::new();
    let mut in_storm = vec![false; coverage.cells()];
    for (k, e) in events.iter().enumerate() {
        if e.time_ms / 1000.0 >= horizon {
            continue;
        }
        // The serving satellite this event cuts off, and the event that
        // ends the outage.
        let (sat, until) = match e.action {
            ChaosAction::Crash(sat) => (sat, ChaosAction::Recover(sat)),
            ChaosAction::LinkDown(a, b) => {
                let sat = if a < cfg.sats { a } else { b };
                (sat, ChaosAction::LinkUp(a, b))
            }
            _ => continue,
        };
        if sat >= cfg.sats {
            continue;
        }
        let until_s = events[k + 1..]
            .iter()
            .find(|r| r.action == until)
            .map_or(horizon, |r| r.time_ms / 1000.0);
        let cells = coverage.range(sat);
        storms.push(StormWin {
            ev_idx: k,
            cells: cells.clone(),
            until_s: until_s + cfg.overload_hold_s,
        });
        if let ChaosAction::Crash(_) = e.action {
            for c in cells.clone() {
                in_storm[c] = true;
            }
            metas.push(CrashMeta {
                ev_idx: k,
                t_s: e.time_ms / 1000.0,
                sat,
                cells,
            });
        }
    }
    (metas, in_storm, storms)
}

/// Per-crash recovery accounting: additive counts plus the
/// time-to-re-established slot histogram (0.25 s resolution).
#[derive(Debug, Clone, Default)]
pub(crate) struct CrashTrack {
    pub dropped: u64,
    /// Re-established within the deadline; `late` ones after it.
    pub survived: u64,
    pub late: u64,
    pub lost: u64,
    pub pending: u64,
    /// `slots[i]` = sessions re-established with offset in
    /// `[i·0.25 s, (i+1)·0.25 s)`; the last slot collects ≥ deadline.
    slots: Vec<u64>,
}

impl CrashTrack {
    fn new(in_slots: usize) -> Self {
        Self {
            slots: vec![0; in_slots + 1],
            ..Self::default()
        }
    }

    fn absorb(&mut self, o: &CrashTrack) {
        self.dropped += o.dropped;
        self.survived += o.survived;
        self.late += o.late;
        self.lost += o.lost;
        self.pending += o.pending;
        add(&mut self.slots, &o.slots);
    }

    /// Exact time to 99 % re-established: the first slot boundary by
    /// which ≥ ⌈0.99 · dropped⌉ sessions were back, `None` if 99 % was
    /// never reached within the deadline.
    pub fn tt99_s(&self) -> Option<f64> {
        if self.dropped == 0 {
            return None;
        }
        let target = (self.dropped * 99).div_ceil(100);
        let mut cum = 0u64;
        for (i, &n) in self.slots[..self.slots.len() - 1].iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some((i + 1) as f64 * (TT_SLOT_US as f64 * 1e-6));
            }
        }
        None
    }
}

/// Connection state of one UE.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Link {
    Idle,
    Connected,
    /// Between a drop (or a blocked fresh establishment) and the
    /// re-establishment that resolves it.
    Reattaching,
}

/// One UE's churn + recovery state inside its shard, packed into 16
/// bytes: a million of them are resident at once.
struct Ue {
    /// Global UE id — the hash-stream key.
    id: u32,
    /// Draws consumed from this UE's hash stream (see the module docs).
    draws: u32,
    /// Current row-major cell index ([`run`] asserts the grid fits).
    cell: u16,
    /// Session generation: bumped on every drop/teardown so stale
    /// `Release`/`Reattach` events of an earlier session are ignored.
    /// It wraps, so a stale event would pass for a live one only after
    /// 65,536 bumps while it is pending. Bumps come from the UE's own
    /// arrivals and retries, each at least [`MIN_DELAY_S`] after the
    /// previous one of its kind, and from crashes: a wrap takes hours
    /// of simulated time, while a pending event lands within one hold
    /// (≤ 15 s) or one retry delay. Stale detection stays exact.
    gen: u16,
    /// Attempts made in the current re-establishment chain
    /// (≤ `budget.max_attempts`, which [`run`] asserts fits).
    attempt: u8,
    /// Crash row this recovery belongs to (−1: blocked fresh
    /// establishment, not a dropped session); the recovery is timed
    /// from the row's crash.
    crash: i8,
    state: Link,
    /// Index into [`REGIONS`] (0 when the caller classifies no regions).
    region: u8,
}

impl Ue {
    fn draw(&mut self, seed: u64) -> f64 {
        let u = ue_unit(seed, self.id, self.draws);
        self.draws += 1;
        u
    }
}

/// Churn + chaos events; UE payloads are shard-local indices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrive(u32),
    Release { ue: u32, gen: u16 },
    Sweep(u32),
    Cross(u32),
    Reattach { ue: u32, gen: u16 },
    /// Index into the timeline's event list; scheduled before any UE
    /// event so same-tick ties resolve chaos-first in every shard.
    Chaos(u32),
}

/// Element-wise `acc += v`.
fn add<T: Copy + std::ops::AddAssign>(acc: &mut [T], v: &[T]) {
    for (a, &b) in acc.iter_mut().zip(v) {
        *a += b;
    }
}

/// Everything one shard returns — additive tallies, mergeable
/// histograms, per-crash tracks and per-window counts, no
/// ordering-sensitive state — and, folded in slot order by
/// [`ShardOut::absorb`], the whole run's totals.
#[derive(Default)]
pub(crate) struct ShardOut {
    pub stats: ShardStats,
    pub cstats: ChaosStats,
    /// Workload events (chaos markers are schedule bookkeeping, replayed
    /// in every shard, and stay out of the tallies).
    pub events_total: u64,
    pub events_measured: u64,
    /// Busy-time integral in integer µs ticks — exact under summation.
    pub busy_us: u64,
    /// Active sessions per cell at the horizon. Sessions in a cell can
    /// live in any shard (crossings migrate UEs into foreign cells), so
    /// the fold sums element-wise.
    pub cell_active_end: Vec<u32>,
    pub step_hist: Histogram,
    pub reattach_hist: Histogram,
    pub crash_rows: Vec<CrashTrack>,
    /// Measured session arrivals per region byte.
    pub region_arrivals: [u64; REGIONS.len()],
    pub reattaching_at_horizon: u64,
    /// Workload events per SLO window.
    pub events_win: Vec<u64>,
    /// Establishments per SLO window, storm cells only.
    pub est_storm_win: Vec<u64>,
    /// Re-registration signaling per SLO window, storm cells only
    /// (establishments + re-establishment attempts).
    pub rereg_storm_win: Vec<u64>,
    /// Signaling the overload gate (or an outage) deferred into the
    /// paced lane, per SLO window.
    pub gate_deferred_win: Vec<u64>,
    /// C4 updates the overload gate shed outright, per SLO window.
    pub gate_shed_win: Vec<u64>,
}

impl ShardOut {
    fn new(cells: usize, windows: usize, in_slots: usize, crashes: usize) -> Self {
        let win = || vec![0; windows];
        Self {
            cell_active_end: vec![0; cells],
            crash_rows: vec![CrashTrack::new(in_slots); crashes],
            events_win: win(),
            est_storm_win: win(),
            rereg_storm_win: win(),
            gate_deferred_win: win(),
            gate_shed_win: win(),
            ..Self::default()
        }
    }

    /// Slot-order fold step: sums and bucket merges only.
    fn absorb(&mut self, o: &ShardOut) {
        self.stats.absorb(&o.stats);
        self.cstats.absorb(&o.cstats);
        self.events_total += o.events_total;
        self.events_measured += o.events_measured;
        self.busy_us += o.busy_us;
        add(&mut self.cell_active_end, &o.cell_active_end);
        self.step_hist.merge(&o.step_hist);
        self.reattach_hist.merge(&o.reattach_hist);
        for (row, or) in self.crash_rows.iter_mut().zip(&o.crash_rows) {
            row.absorb(or);
        }
        add(&mut self.region_arrivals, &o.region_arrivals);
        self.reattaching_at_horizon += o.reattaching_at_horizon;
        add(&mut self.events_win, &o.events_win);
        add(&mut self.est_storm_win, &o.est_storm_win);
        add(&mut self.rereg_storm_win, &o.rereg_storm_win);
        add(&mut self.gate_deferred_win, &o.gate_deferred_win);
        add(&mut self.gate_shed_win, &o.gate_shed_win);
    }
}

/// Immutable per-run context every shard worker borrows: the config
/// and its derived constants, the static maps, the cost models, and the
/// precomputed chaos scenario.
struct Ctx<'a> {
    cfg: &'a ChaosloadConfig,
    names: &'a Names,
    params: WorkloadParams,
    seed: u64,
    horizon: f64,
    /// Deadline in 0.25 s slots.
    in_slots: usize,
    grid: CellGrid,
    coverage: ShardMap,
    costs: ProcedureCosts,
    rcosts: RecoveryCosts,
    metas: Vec<CrashMeta>,
    in_storm: Vec<bool>,
    storms: Vec<StormWin>,
}

/// One shard's DES and state; each `Ev` variant has a handler method.
struct Shard<'a> {
    ctx: &'a Ctx<'a>,
    rec: &'a Recorder,
    ues: Vec<Ue>,
    q: EventQueue<Ev>,
    ledger: CellLedger,
    storm: CellStorm,
    /// Per-shard replay cursor over the shared timeline.
    cursor: ChaosCursor<'a>,
    /// The cursor's recorder: disabled, or shards would multiply the
    /// schedule counters by the shard count; [`run`]'s callers emit the
    /// schedule once, serially.
    quiet: Recorder,
    out: ShardOut,
}

impl<'a> Shard<'a> {
    fn new(ctx: &'a Ctx<'a>, mut ues: Vec<Ue>, rec: &'a Recorder) -> Self {
        let (cfg, params, seed) = (ctx.cfg, &ctx.params, ctx.seed);
        let windows = (ctx.horizon / SLO_WINDOW_S).ceil() as usize;
        let cells = ctx.grid.cell_count();
        // Chaos markers first (smallest sequence numbers in *every*
        // shard, so same-tick ties against UE events resolve
        // identically), then the initial churn schedule in local UE
        // order: exponential first arrival (stationary Poisson from
        // t = 0), uniform sweep phase, exponential first crossing.
        let mut q = EventQueue::new();
        for (k, e) in cfg.timeline.events().iter().enumerate() {
            q.schedule(e.time_ms / 1000.0, Ev::Chaos(k as u32));
        }
        for (i, ue) in ues.iter_mut().enumerate() {
            let i = i as u32;
            let u = ue.draw(seed);
            q.schedule(exp_clamped(params.session_interarrival_s, u, MIN_DELAY_S), Ev::Arrive(i));
            let u = ue.draw(seed);
            q.schedule(u * params.transit_s, Ev::Sweep(i));
            let u = ue.draw(seed);
            q.schedule(exp_clamped(cfg.load.crossing_interval_s, u, MIN_DELAY_S), Ev::Cross(i));
        }
        Self {
            ctx,
            rec,
            ues,
            q,
            ledger: CellLedger::new(cells, cfg.load.warmup_s, ctx.horizon),
            storm: CellStorm::new(cells),
            cursor: cfg.timeline.cursor(),
            quiet: Recorder::disabled(),
            out: ShardOut::new(cells, windows, ctx.in_slots, ctx.metas.len()),
        }
    }

    /// Drain the calendar in batch windows up to the horizon, then
    /// close the books.
    fn run(mut self) -> ShardOut {
        let (cfg, horizon) = (self.ctx.cfg, self.ctx.horizon);
        let windows = (horizon / cfg.batch_window_s).ceil() as u64;
        // Events are tallied into the SLO window of their time.
        let last_win = self.out.events_win.len().saturating_sub(1);
        let mut batch = Vec::new();
        for w in 0..windows {
            let end = ((w + 1) as f64 * cfg.batch_window_s).min(horizon);
            self.q.drain_until(end, &mut batch);
            for ev in &batch {
                let t = ev.time;
                let measured = t >= cfg.load.warmup_s;
                let win = ((t / SLO_WINDOW_S) as usize).min(last_win);
                if !matches!(ev.event, Ev::Chaos(_)) {
                    self.out.events_total += 1;
                    self.out.events_win[win] += 1;
                    if measured {
                        self.out.events_measured += 1;
                    }
                }
                self.cursor.advance_to(t * 1000.0, &self.quiet);
                match ev.event {
                    Ev::Arrive(i) => self.arrive(i, t, win, measured),
                    Ev::Release { ue, gen } => self.release(ue, gen, t, win, measured),
                    Ev::Sweep(i) => self.sweep(i, t, win, measured),
                    Ev::Cross(i) => self.cross(i, t, win, measured),
                    Ev::Reattach { ue, gen } => self.reattach(ue, gen, t, win, measured),
                    Ev::Chaos(k) => self.chaos(k as usize, t, measured),
                }
            }
        }
        self.ledger.finish();
        for ue in &self.ues {
            if ue.state == Link::Reattaching {
                self.out.reattaching_at_horizon += 1;
                if let Ok(row) = usize::try_from(ue.crash) {
                    self.out.crash_rows[row].pending += 1;
                }
            }
        }
        self.out.busy_us = self.ledger.busy_us();
        self.out.cell_active_end = self.ledger.cell_active().to_vec();
        self.out
    }

    /// Is the serving satellite of `cell` unreachable right now (dead or
    /// feeder link down)? Burst loss is drawn separately, per attempt.
    fn service_down(&self, cell: usize) -> bool {
        let sat = self.ctx.coverage.shard_of(cell);
        self.cursor.is_dead(sat) || self.cursor.link_down(sat, self.ctx.cfg.gateway())
    }

    /// Does UE `i`'s attempt die in the current loss burst? Keyed by
    /// `(timeline seed, UE, draw#)`.
    fn burst_lost(&mut self, i: u32, measured: bool) -> bool {
        if !self.cursor.in_burst() {
            return false;
        }
        let ue = &mut self.ues[i as usize];
        let lost = self.cursor.burst_loss_keyed(ue.id as u64, ue.draws as u64, &self.quiet);
        ue.draws += 1;
        if lost && measured {
            self.out.cstats.burst_losses += 1;
        }
        lost
    }

    /// Delay of UE `i`'s attempt `attempt`: a fresh admission waits in
    /// the paced half-rate admission lane, a recovery chain (or any
    /// chain with pacing off) backs off exponentially. Draws the jitter.
    fn retry_delay(&mut self, i: u32, attempt: u8) -> f64 {
        let cfg = self.ctx.cfg;
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.ctx.seed);
        if cfg.paced && ue.crash < 0 {
            let slot = cfg.budget.slot(mix64(
                self.ctx.seed ^ mix64(((ue.id as u64) << 16) | 0xFF00 | u64::from(attempt)),
            ));
            cfg.budget.admission_attempt_s(slot, u).max(MIN_DELAY_S)
        } else {
            cfg.budget.backoff_s(u32::from(attempt), u).max(MIN_DELAY_S)
        }
    }

    /// Draw the cost jitter and, for measured events with SpaceCore-side
    /// work, record the cost (integer simulated µs). The draw always
    /// happens, so stream positions never depend on the measured window.
    fn observe_cost(&mut self, i: u32, msgs: u32, measured: bool) {
        let u = self.ues[i as usize].draw(self.ctx.seed);
        if measured && msgs > 0 {
            let cost_us = (msgs as f64 * PER_MSG_US * (0.75 + 0.5 * u)).round();
            self.out.step_hist.observe(cost_us);
            self.rec.observe(self.ctx.names.step_us, cost_us);
        }
    }

    /// Bill a measured event through `bill`, which returns its
    /// SpaceCore-side message count, and observe its cost.
    fn bill(&mut self, i: u32, measured: bool, bill: impl FnOnce(&mut ShardStats) -> u32) {
        let msgs = if measured { bill(&mut self.out.stats) } else { 0 };
        self.observe_cost(i, msgs, measured);
    }

    /// Session arrival: rides an existing bearer or recovery exchange;
    /// on an idle UE, the localized establishment or a deferred admission.
    fn arrive(&mut self, i: u32, t: f64, win: usize, measured: bool) {
        let Ctx { costs, in_storm, names, .. } = self.ctx;
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.ctx.seed);
        let next = t + exp_clamped(self.ctx.params.session_interarrival_s, u, MIN_DELAY_S);
        if measured {
            self.out.region_arrivals[usize::from(ue.region)] += 1;
        }
        if ue.state != Link::Idle {
            if measured {
                self.out.stats.bill_arrival(costs, true);
            }
            self.q.schedule(next, Ev::Arrive(i));
            return;
        }
        let cell = usize::from(ue.cell);
        let down = self.service_down(cell);
        // Admission control: an alive-but-storming satellite broadcasts
        // access-class barring, so new-session requests are never even
        // transmitted — recovery traffic keeps the bucket's full rate.
        let barred = !down && self.storm.overloaded(cell, tick(t));
        let blocked = down || barred || self.burst_lost(i, measured);
        if blocked {
            // Admission is deferred into the paced half-rate lane of the
            // bucket (no session to lose yet, so no crash row).
            let ue = &mut self.ues[i as usize];
            ue.state = Link::Reattaching;
            ue.gen = ue.gen.wrapping_add(1);
            ue.attempt = 1;
            ue.crash = -1;
            let gen = ue.gen;
            if measured {
                self.out.stats.arrivals += 1;
                self.out.cstats.deferred_establishments += 1;
                self.out.gate_deferred_win[win] += 1;
                // Only a burst-lost setup actually transmitted to a live
                // satellite; barred UEs stay silent and against a dead
                // one there is no cell to signal to — no surge counted.
                if in_storm[cell] && !down && !barred {
                    self.out.rereg_storm_win[win] += 1;
                }
            }
            let delay = self.retry_delay(i, 1);
            self.q.schedule(t + delay, Ev::Reattach { ue: i, gen });
        } else {
            let ue = &mut self.ues[i as usize];
            let u = ue.draw(self.ctx.seed);
            let hold = self.ctx.params.inactivity_release_s - 2.5 + 5.0 * u; // U(10, 15)
            ue.state = Link::Connected;
            let gen = ue.gen;
            self.ledger.connect(cell, t);
            self.q.schedule(t + hold, Ev::Release { ue: i, gen });
            if measured {
                self.rec.observe(names.session_hold_ms, (hold * 1000.0).round());
                if in_storm[cell] {
                    self.out.est_storm_win[win] += 1;
                    self.out.rereg_storm_win[win] += 1;
                }
            }
            self.bill(i, measured, |s| s.bill_arrival(costs, false));
        }
        self.q.schedule(next, Ev::Arrive(i));
    }

    /// RRC release, deferred by the overload gate. A stale one (its
    /// session was dropped) draws nothing, so it is invisible to the streams.
    fn release(&mut self, i: u32, gen: u16, t: f64, win: usize, measured: bool) {
        let ue = &mut self.ues[i as usize];
        if ue.gen != gen || ue.state != Link::Connected {
            return;
        }
        let cell = usize::from(ue.cell);
        if self.storm.overloaded(cell, tick(t)) {
            if measured {
                self.out.cstats.deferred_releases += 1;
                self.out.gate_deferred_win[win] += 1;
            }
            let u = self.ues[i as usize].draw(self.ctx.seed);
            self.q.schedule(t + MIN_DELAY_S + u, Ev::Release { ue: i, gen });
            return;
        }
        ue.state = Link::Idle;
        self.ledger.release(cell, t);
        let costs = &self.ctx.costs;
        self.bill(i, measured, |s| s.bill_release(costs));
    }

    /// Satellite sweep: a local handover for a connected UE, free for an
    /// idle one under geospatial tracking areas (legacy bills a C4).
    fn sweep(&mut self, i: u32, t: f64, win: usize, measured: bool) {
        let costs = &self.ctx.costs;
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.ctx.seed);
        let next = (t + self.ctx.params.transit_s * (0.75 + 0.5 * u)).max(t + MIN_DELAY_S);
        if ue.state != Link::Connected {
            if measured {
                self.out.stats.bill_sweep(costs, false);
            }
        } else if self.storm.overloaded(usize::from(ue.cell), tick(t)) {
            // Defer the handover signaling, not the satellite: retry
            // shortly, the normal sweep cadence resumes once it lands.
            if measured {
                self.out.cstats.deferred_handovers += 1;
                self.out.gate_deferred_win[win] += 1;
            }
            let u = self.ues[i as usize].draw(self.ctx.seed);
            self.q.schedule(t + MIN_DELAY_S + u, Ev::Sweep(i));
            return;
        } else {
            self.bill(i, measured, |s| s.bill_sweep(costs, true));
        }
        self.q.schedule(next, Ev::Sweep(i));
    }

    /// Cell crossing to a random neighbour: a C4 update both ways, shed
    /// while the destination is storming (the record is eventually consistent).
    fn cross(&mut self, i: u32, t: f64, win: usize, measured: bool) {
        let Ctx { grid, costs, .. } = self.ctx;
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.ctx.seed);
        let dir = ((u * 4.0) as usize).min(3);
        let old = cell_at(grid, usize::from(ue.cell));
        let new_idx = cell_index(grid, grid.neighbors(old)[dir]);
        if ue.state == Link::Connected {
            self.ledger.move_session(usize::from(ue.cell), new_idx);
        }
        ue.cell = new_idx as u16;
        let shed = self.storm.overloaded(new_idx, tick(t));
        if shed && measured {
            self.out.cstats.shed_crossings += 1;
            self.out.gate_shed_win[win] += 1;
        }
        // A shed update bills nothing, but its cost jitter still draws
        // so the stream stays aligned.
        self.bill(i, measured && !shed, |s| s.bill_crossing(costs));
        let u = self.ues[i as usize].draw(self.ctx.seed);
        let next = t + exp_clamped(self.ctx.cfg.load.crossing_interval_s, u, MIN_DELAY_S);
        self.q.schedule(next, Ev::Cross(i));
    }

    /// One attempt of a re-establishment chain: a dropped session's
    /// stateless local re-establishment (4 msgs vs legacy 13) or a
    /// deferred fresh establishment.
    fn reattach(&mut self, i: u32, gen: u16, t: f64, win: usize, measured: bool) {
        let Ctx { cfg, costs, rcosts, in_storm, metas, names, .. } = self.ctx;
        let ue = &self.ues[i as usize];
        if ue.gen != gen || ue.state != Link::Reattaching {
            return; // stale chain
        }
        let (cell, crash, attempt) = (usize::from(ue.cell), ue.crash, ue.attempt);
        let down = self.service_down(cell);
        let exhausted = u32::from(attempt) >= cfg.budget.max_attempts;
        if crash < 0 && !down && self.storm.overloaded(cell, tick(t)) {
            // Fresh admission still barred by the overload broadcast:
            // stay silent, re-enter the half-rate admission lane.
            if measured {
                self.out.cstats.deferred_establishments += 1;
                self.out.gate_deferred_win[win] += 1;
            }
            self.retry_or_give_up(i, t, exhausted, measured);
            return;
        }
        let failed = down || self.burst_lost(i, measured);
        // Surge accounting: an attempt is signaling load on the
        // satellite only if a live satellite saw it — against a dead one
        // there is no cell to reach, the UE just keeps scanning.
        if measured && in_storm[cell] && !down {
            self.out.rereg_storm_win[win] += 1;
        }
        if failed {
            if measured {
                self.out.cstats.bill_attempt_failure(rcosts);
            }
            self.retry_or_give_up(i, t, exhausted, measured);
            return;
        }
        let ue = &mut self.ues[i as usize];
        ue.state = Link::Connected;
        ue.crash = -1;
        ue.attempt = 0;
        self.ledger.connect(cell, t);
        let msgs = match usize::try_from(crash) {
            _ if !measured => 0,
            Ok(row) => {
                let off_us = tick(t) - tick(metas[row].t_s);
                let slot = ((off_us / TT_SLOT_US) as usize).min(self.ctx.in_slots);
                let track = &mut self.out.crash_rows[row];
                track.slots[slot] += 1;
                if slot < self.ctx.in_slots {
                    track.survived += 1;
                } else {
                    track.late += 1;
                }
                let off_ms = (off_us as f64 / 1000.0).round();
                self.out.reattach_hist.observe(off_ms);
                if let Some(name) = names.reattach_ms {
                    self.rec.observe(name, off_ms);
                }
                self.out.cstats.bill_reattach(rcosts)
            }
            Err(_) => {
                // A deferred fresh establishment landing.
                let s = &mut self.out.stats;
                s.establishments += 1;
                s.spacecore_msgs += costs.local_establishment as u64;
                s.legacy_msgs += costs.legacy_establishment as u64;
                if in_storm[cell] {
                    self.out.est_storm_win[win] += 1;
                }
                costs.local_establishment
            }
        };
        let u = self.ues[i as usize].draw(self.ctx.seed);
        let hold = self.ctx.params.inactivity_release_s - 2.5 + 5.0 * u;
        self.q.schedule(t + hold, Ev::Release { ue: i, gen });
        self.observe_cost(i, msgs, measured);
    }

    /// After a barred or failed attempt: give up once the budget is
    /// exhausted (a dropped session is then lost), else retry — recovery
    /// chains back off exponentially, fresh-admission chains re-enter
    /// the paced admission lane.
    fn retry_or_give_up(&mut self, i: u32, t: f64, exhausted: bool, measured: bool) {
        let ue = &mut self.ues[i as usize];
        if exhausted {
            if measured {
                self.out.cstats.budget_exhausted += 1;
                if let Ok(row) = usize::try_from(ue.crash) {
                    self.out.crash_rows[row].lost += 1;
                }
            }
            ue.state = Link::Idle;
            ue.gen = ue.gen.wrapping_add(1);
            ue.crash = -1;
            ue.attempt = 0;
            return;
        }
        ue.attempt += 1;
        let (gen, attempt) = (ue.gen, ue.attempt);
        let delay = self.retry_delay(i, attempt);
        self.q.schedule(t + delay, Ev::Reattach { ue: i, gen });
    }

    /// Timeline marker `k`: open the overload windows it starts and, for
    /// a crash, drop every connected session in the footprint and pace
    /// its re-establishment through the budget.
    fn chaos(&mut self, k: usize, t: f64, measured: bool) {
        let Ctx { cfg, metas, storms, .. } = self.ctx;
        // Apply through the event's *exact* quantized timestamp: the
        // s → ms roundtrip can land one ulp short of it.
        self.cursor.advance_to(cfg.timeline.events()[k].time_ms, &self.quiet);
        let now_us = tick(t);
        for sw in storms.iter().filter(|s| s.ev_idx == k) {
            self.storm.open(sw.cells.clone(), now_us, tick(sw.until_s));
        }
        let Some(row) = metas.iter().position(|m| m.ev_idx == k) else {
            return; // recover/link/burst/flap: no drops
        };
        let cells = &metas[row].cells;
        for (j, ue) in self.ues.iter_mut().enumerate() {
            let cell = usize::from(ue.cell);
            if ue.state != Link::Connected || !cells.contains(&cell) {
                continue;
            }
            ue.state = Link::Reattaching;
            ue.gen = ue.gen.wrapping_add(1); // invalidates the pending Release
            ue.attempt = 1;
            ue.crash = row as i8;
            self.ledger.release(cell, t);
            if measured {
                self.out.cstats.dropped += 1;
                self.out.crash_rows[row].dropped += 1;
            }
            let u = ue.draw(self.ctx.seed);
            let first = if cfg.paced {
                let slot = cfg
                    .budget
                    .slot(mix64(self.ctx.seed ^ mix64(((ue.id as u64) << 8) | row as u64)));
                cfg.budget.first_attempt_s(slot, u)
            } else {
                // Thundering herd: everyone storms the replacement right
                // after detection.
                cfg.budget.detect_s + 0.2 * u
            };
            self.q.schedule(t + first, Ev::Reattach { ue: j as u32, gen: ue.gen });
        }
    }
}

/// Emit a folded per-window tally as the counter series `name`; empty
/// windows stay absent, exactly as when recorded per event.
pub(crate) fn emit_series(obs: &Recorder, name: &'static str, wins: &[u64]) {
    for (w, &v) in wins.iter().enumerate() {
        if v > 0 {
            obs.series_inc_tick(name, w as u64 * sc_obs::WINDOW_TICKS, v);
        }
    }
}

/// A finished run: the static scenario plus the slot-order fold of
/// every shard's [`ShardOut`].
pub(crate) struct Run {
    pub cells: usize,
    pub metas: Vec<CrashMeta>,
    /// UEs per region byte (all in slot 0 when regions are not
    /// classified).
    pub region_ues: [u64; REGIONS.len()],
    pub total: ShardOut,
}

/// The engine proper: place the population, run every shard on up to
/// `threads` workers, and fold. `region_of` classifies each UE's region
/// at placement (only the failure-free soak reports regions, so the
/// chaos soak skips the lookup). Results and merged telemetry are
/// byte-identical for every `threads` value and every shard count.
///
/// # Panics
/// If the config breaks a contract the engine's results rely on: a
/// batch window wider than [`MIN_DELAY_S`], a recovery deadline off the
/// 0.25 s slot grid, or a retry budget or crash count too large for the
/// compact per-UE fields.
pub(crate) fn run(
    threads: usize,
    obs: &Recorder,
    cfg: &ChaosloadConfig,
    names: &Names,
    region_of: Option<fn(&PopulationModel, &GeoPoint) -> Region>,
) -> Run {
    assert!(
        cfg.batch_window_s > 0.0 && cfg.batch_window_s <= MIN_DELAY_S,
        "batch window must not exceed the minimum follow-up delay"
    );
    assert_eq!(
        tick(cfg.deadline_s) % TT_SLOT_US,
        0,
        "recovery deadline must sit on the 0.25 s slot grid"
    );
    assert!(
        cfg.budget.max_attempts <= u32::from(u8::MAX),
        "retry budget max_attempts must fit the per-UE attempt counter (u8)"
    );
    let grid = CellGrid::new(53f64.to_radians(), 72, 22);
    assert!(grid.cell_count() <= 1 << 16, "cell indices must fit a u16");
    let shard_map = ShardMap::new(grid.cell_count(), cfg.load.shards);
    let coverage = ShardMap::new(grid.cell_count(), cfg.sats);
    let horizon = cfg.load.warmup_s + cfg.load.measure_s;
    let (metas, in_storm, storms) = scenario_metas(cfg, &coverage, horizon);
    assert!(metas.len() <= i8::MAX as usize, "crash count must fit the per-UE crash row (i8)");

    // Placement: every UE gets its cell, region and owner shard from
    // the population draw; shard inputs are filled in UE-id order so a
    // shard's local ordering is independent of the shard count.
    let pop = PopulationModel::world_bank_like();
    let points = pop.sample_ues(cfg.load.total_ues, cfg.load.seed);
    let mut region_ues = [0u64; REGIONS.len()];
    let mut shard_ues: Vec<Vec<Ue>> = (0..shard_map.shards()).map(|_| Vec::new()).collect();
    for (id, p) in points.iter().enumerate() {
        let cell = cell_index(&grid, grid.cell_of_point(p));
        let region = region_of.map_or(0, |f| f(&pop, p) as u8);
        region_ues[usize::from(region)] += 1;
        shard_ues[shard_map.shard_of(cell)].push(Ue {
            id: id as u32,
            draws: 0,
            cell: cell as u16,
            gen: 0,
            attempt: 0,
            crash: -1,
            state: Link::Idle,
            region,
        });
    }

    let ctx = Ctx {
        cfg,
        names,
        params: WorkloadParams::paper_defaults(),
        seed: cfg.load.seed,
        horizon,
        in_slots: (tick(cfg.deadline_s) / TT_SLOT_US) as usize,
        grid,
        coverage,
        costs: ProcedureCosts::paper(),
        rcosts: RecoveryCosts::paper(),
        metas,
        in_storm,
        storms,
    };
    let outs = crate::engine::parallel_map_obs_with(threads, obs, shard_ues, |ues, rec| {
        Shard::new(&ctx, ues, rec).run()
    });
    // Slot-order fold: sums and bucket merges only.
    let mut outs = outs.into_iter();
    let mut total = outs.next().unwrap_or_default();
    for o in outs {
        total.absorb(&o);
    }

    let (s, c) = (&total.stats, &total.cstats);
    let counters = [
        total.events_total,
        s.arrivals,
        s.establishments,
        s.piggybacked,
        s.releases,
        s.local_handovers,
        s.idle_sweeps,
        s.cell_crossings,
        s.spacecore_msgs + c.spacecore_msgs,
        s.legacy_msgs + c.legacy_msgs,
    ];
    for (name, v) in names.counters.iter().zip(counters) {
        obs.inc(name, v);
    }

    Run { cells: ctx.grid.cell_count(), metas: ctx.metas, region_ues, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_netsim::des::ScheduledEvent;

    #[test]
    fn ue_unit_is_a_pure_function_of_the_key() {
        for (seed, ue, draw) in [(0u64, 0u32, 0u32), (7, 42, 9), (u64::MAX, u32::MAX, u32::MAX)] {
            assert_eq!(ue_unit(seed, ue, draw), ue_unit(seed, ue, draw));
            assert!((0.0..1.0).contains(&ue_unit(seed, ue, draw)));
        }
        assert_ne!(ue_unit(1, 2, 3), ue_unit(1, 2, 4));
        assert_ne!(ue_unit(1, 2, 3), ue_unit(1, 3, 3));
        assert_ne!(ue_unit(1, 2, 3), ue_unit(2, 2, 3));
    }

    #[test]
    fn hash_stream_is_uniform_ish() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = ue_unit(7, i % 97, i / 97);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    #[test]
    fn exp_clamped_floors_at_the_batch_window() {
        assert_eq!(exp_clamped(100.0, 0.0, 1.0), 1.0);
        assert!(exp_clamped(100.0, 0.999, 0.25) > 100.0);
        for i in 0..1000 {
            assert!(exp_clamped(106.9, ue_unit(4, 1, i), 1.0) >= 1.0);
        }
        let n = 20_000;
        let sum: f64 = (0..n).map(|i| exp_clamped(106.9, ue_unit(3, 0, i), MIN_DELAY_S)).sum();
        let mean = sum / n as f64;
        assert!((mean - 106.9).abs() < 0.05 * 106.9, "{mean}");
    }

    #[test]
    fn batch_window_matches_calendar_day() {
        assert_eq!(BATCH_WINDOW_S, EventQueue::<Ev>::BUCKET_WIDTH_S);
        // MIN_DELAY_S >= BATCH_WINDOW_S is definitional; the batching ≡
        // interleaving argument in the module docs depends on it.
    }

    #[test]
    fn compact_layout_holds() {
        // A million resident UEs and ~3 pending events per UE: these
        // sizes set the soaks' peak RSS.
        assert_eq!(size_of::<Ue>(), 16);
        assert_eq!(size_of::<Ev>(), 8);
        assert_eq!(size_of::<ScheduledEvent<Ev>>(), 24);
    }

    #[test]
    fn region_bytes_follow_declaration_order() {
        for (i, r) in REGIONS.iter().enumerate() {
            assert_eq!(*r as usize, i);
        }
    }
}
