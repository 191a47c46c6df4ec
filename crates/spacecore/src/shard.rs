//! Cell-keyed shard substrate for the sustained-load engine.
//!
//! The paper's natural shard key is the **geospatial cell**: all
//! serving state for a UE lives in the cell the UE occupies, never in
//! the satellite passing overhead (§4.1). This module gives the
//! million-UE engine (`sc-emu`'s `churn`) that model as data
//! structures:
//!
//! * [`ShardMap`] — partitions the row-major cell index space of a
//!   [`sc_geo::cells::CellGrid`] into contiguous, balanced shards, so
//!   each shard owns a band of orbital-plane columns and every cell has
//!   exactly one owner.
//! * [`CellLedger`] — per-shard active-session accounting, **dense by
//!   cell index** (a `Vec<u32>`, no per-UE keyed collections — the
//!   whole point of the stateless design is that satellites and shards
//!   hold no UE-keyed maps). It also integrates busy-time over a
//!   measurement window, so mean concurrent sessions come out as a
//!   shard-additive quantity (a sum of integrals), invariant to how
//!   many shards the cells are split across.
//! * [`ProcedureCosts`] / [`ShardStats`] — the signaling bill of the
//!   churn events, derived once from [`crate::mobility::MobilityManager`]
//!   and the Figure 9 procedure message counts, and tallied per shard
//!   in plain additive counters.
//!
//! Everything here is `u64`/`f64` sums over disjoint cell ranges:
//! merging shard results in any grouping reproduces the single-shard
//! numbers exactly, which is what lets the engine assert byte-identical
//! output across `SC_EMU_THREADS` and shard counts.

use crate::mobility::{MobilityEvent, MobilityManager};
use crate::recovery::RecoveryCosts;
use sc_fiveg::conn::ConnState;
use sc_fiveg::messages::{Procedure, ProcedureKind};
use sc_geo::cells::{CellGrid, CellId};

/// Row-major index of a cell in its grid: `col * slots + row`, matching
/// [`CellGrid::iter_cells`] order.
pub fn cell_index(grid: &CellGrid, id: CellId) -> usize {
    id.col as usize * grid.slots() as usize + id.row as usize
}

/// Inverse of [`cell_index`]: the [`CellId`] at a row-major index.
pub fn cell_at(grid: &CellGrid, index: usize) -> CellId {
    let slots = grid.slots() as usize;
    CellId::new((index / slots) as u16, (index % slots) as u16)
}

/// A contiguous, balanced partition of `cells` row-major cell indices
/// into `shards` shards. Shard `k` owns `[k·cells/shards ceil-rounded …)`
/// — every shard's size is within one cell of every other's, and shards
/// follow the grid's column order, so a shard is a band of orbital
/// planes.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    cells: usize,
    shards: usize,
}

impl ShardMap {
    /// Partition `cells` into at most `shards` shards (clamped to
    /// `[1, cells]` so no shard is ever empty).
    ///
    /// # Panics
    /// Panics if `cells` is zero.
    pub fn new(cells: usize, shards: usize) -> Self {
        assert!(cells > 0, "cannot shard an empty grid");
        Self {
            cells,
            shards: shards.clamp(1, cells),
        }
    }

    /// Number of shards after clamping.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of cells partitioned.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Owner shard of a row-major cell index.
    ///
    /// # Panics
    /// Panics if `cell` is out of range.
    pub fn shard_of(&self, cell: usize) -> usize {
        assert!(cell < self.cells, "cell {cell} out of range {}", self.cells);
        cell * self.shards / self.cells
    }

    /// The cell-index range shard `k` owns.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        let start = (shard * self.cells).div_ceil(self.shards);
        let end = ((shard + 1) * self.cells).div_ceil(self.shards);
        start..end
    }
}

/// Active-session ledger over a dense cell-index space, with busy-time
/// integration over a `[window_start, window_end]` measurement window.
///
/// `connect`/`release`/`move_session` advance a running integral of
/// (active sessions) · dt, clamped to the window — so `busy_us` over
/// the window length in µs is the exact
/// time-averaged concurrent session count over the measured interval,
/// regardless of how calls interleave with the window edges.
///
/// The integral accumulates in **integer microsecond ticks** (`u64`),
/// quantizing *timestamps* rather than durations: a constant-count
/// interval split at any intermediate event contributes
/// `n·(tick(b)−tick(m)) + n·(tick(m)−tick(a)) = n·(tick(b)−tick(a))`
/// exactly. Float accumulation would pick up last-ulp differences from
/// the grouping of events into shards; integer ticks make the summed
/// integral bit-identical under any shard layout.
#[derive(Debug, Clone)]
pub struct CellLedger {
    active: Vec<u32>,
    total_active: u64,
    start_us: u64,
    end_us: u64,
    last_us: u64,
    busy_us: u64,
}

/// Microsecond tick of a simulation timestamp.
fn tick_us(t: f64) -> u64 {
    (t * 1e6).round() as u64
}

impl CellLedger {
    pub fn new(cells: usize, window_start: f64, window_end: f64) -> Self {
        assert!(window_end >= window_start && window_start >= 0.0);
        Self {
            active: vec![0; cells],
            total_active: 0,
            start_us: tick_us(window_start),
            end_us: tick_us(window_end),
            last_us: 0,
            busy_us: 0,
        }
    }

    /// Accumulate `total_active · dt` over the part of
    /// `[last_t, now]` inside the window.
    fn advance(&mut self, now_us: u64) {
        let a = self.last_us.max(self.start_us);
        let b = now_us.min(self.end_us);
        if b > a {
            self.busy_us += self.total_active * (b - a);
        }
        self.last_us = self.last_us.max(now_us);
    }

    /// A session came up in `cell` at time `now`.
    pub fn connect(&mut self, cell: usize, now: f64) {
        self.advance(tick_us(now));
        self.active[cell] += 1;
        self.total_active += 1;
    }

    /// A session in `cell` ended at time `now`.
    pub fn release(&mut self, cell: usize, now: f64) {
        self.advance(tick_us(now));
        debug_assert!(self.active[cell] > 0, "release without a session");
        self.active[cell] -= 1;
        self.total_active -= 1;
    }

    /// An active session's UE crossed from cell `from` to cell `to`:
    /// the state record moves between cells, the total is unchanged (no
    /// integral advance needed).
    pub fn move_session(&mut self, from: usize, to: usize) {
        debug_assert!(self.active[from] > 0, "move without a session");
        self.active[from] -= 1;
        self.active[to] += 1;
    }

    /// Close the integral at the window end.
    pub fn finish(&mut self) {
        self.advance(self.end_us);
    }

    /// `∫ active sessions dt` over the window in microsecond ticks —
    /// the exact, shard-additive form (call [`Self::finish`] first for
    /// the full-window value). Sum these across shards *before*
    /// converting to seconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Per-cell active counts, dense by cell index.
    pub fn cell_active(&self) -> &[u32] {
        &self.active
    }
}

/// The per-event signaling bill of the churn model, both designs,
/// resolved once from the mobility decision table
/// ([`MobilityManager::handle`]) and the Figure 9 procedure builders so
/// hot-path accounting never rebuilds a [`Procedure`].
#[derive(Debug, Clone, Copy)]
pub struct ProcedureCosts {
    /// SpaceCore localized establishment: the RRC piggyback path of
    /// `satellite::SpaceCoreSatellite::try_local_establishment` — 4
    /// messages, no home round-trip.
    pub local_establishment: u32,
    /// Legacy C2 home-routed establishment.
    pub legacy_establishment: u32,
    /// SpaceCore active-UE satellite sweep: local handover via the UE
    /// replica (3 messages).
    pub local_handover: u32,
    /// Legacy active-UE satellite sweep: full C3 handover.
    pub legacy_handover: u32,
    /// Legacy idle-UE satellite sweep: C4 mobility registration
    /// (SpaceCore's is zero — asserted at construction).
    pub legacy_idle_sweep: u32,
    /// UE crossing a geospatial cell: C4 in both designs (§4.3).
    pub cell_crossing: u32,
    /// RRC release, both designs.
    pub release: u32,
}

impl ProcedureCosts {
    /// Build from the paper's decision table.
    pub fn paper() -> Self {
        let sc = MobilityManager::spacecore();
        let legacy = MobilityManager::legacy();
        let sc_idle = sc.handle(MobilityEvent::SatelliteSweep(ConnState::Idle));
        debug_assert_eq!(
            sc_idle.signaling_messages, 0,
            "geospatial idle sweeps must be free"
        );
        let c2 = Procedure::build(ProcedureKind::SessionEstablishment);
        Self {
            local_establishment: 4,
            legacy_establishment: c2.message_count() as u32,
            local_handover: sc
                .handle(MobilityEvent::SatelliteSweep(ConnState::Connected))
                .signaling_messages,
            legacy_handover: legacy
                .handle(MobilityEvent::SatelliteSweep(ConnState::Connected))
                .signaling_messages,
            legacy_idle_sweep: legacy
                .handle(MobilityEvent::SatelliteSweep(ConnState::Idle))
                .signaling_messages,
            cell_crossing: sc
                .handle(MobilityEvent::UeCellCrossing(ConnState::Idle))
                .signaling_messages,
            release: 2,
        }
    }
}

/// Additive churn tallies for one shard: event counts plus the running
/// signaling bill under both designs. Merging is plain `+=`, so any
/// shard grouping sums to the same totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub arrivals: u64,
    /// Arrivals that found the session already up (no establishment).
    pub piggybacked: u64,
    pub establishments: u64,
    pub releases: u64,
    /// Active-UE satellite sweeps (local handover under SpaceCore).
    pub local_handovers: u64,
    /// Idle-UE satellite sweeps (free under SpaceCore, C4 under legacy).
    pub idle_sweeps: u64,
    pub cell_crossings: u64,
    /// Signaling messages billed to the SpaceCore design.
    pub spacecore_msgs: u64,
    /// Signaling messages billed to the legacy stateful design.
    pub legacy_msgs: u64,
}

impl ShardStats {
    /// Merge another shard's tallies into this one.
    pub fn absorb(&mut self, o: &ShardStats) {
        self.arrivals += o.arrivals;
        self.piggybacked += o.piggybacked;
        self.establishments += o.establishments;
        self.releases += o.releases;
        self.local_handovers += o.local_handovers;
        self.idle_sweeps += o.idle_sweeps;
        self.cell_crossings += o.cell_crossings;
        self.spacecore_msgs += o.spacecore_msgs;
        self.legacy_msgs += o.legacy_msgs;
    }

    /// Bill a session arrival; returns the SpaceCore-side message count
    /// (zero when the session was already up and the data rides the
    /// existing bearer).
    pub fn bill_arrival(&mut self, costs: &ProcedureCosts, connected: bool) -> u32 {
        self.arrivals += 1;
        if connected {
            self.piggybacked += 1;
            0
        } else {
            self.establishments += 1;
            self.spacecore_msgs += costs.local_establishment as u64;
            self.legacy_msgs += costs.legacy_establishment as u64;
            costs.local_establishment
        }
    }

    /// Bill an RRC release; returns the SpaceCore-side message count.
    pub fn bill_release(&mut self, costs: &ProcedureCosts) -> u32 {
        self.releases += 1;
        self.spacecore_msgs += costs.release as u64;
        self.legacy_msgs += costs.release as u64;
        costs.release
    }

    /// Bill a satellite sweep past a UE; returns the SpaceCore-side
    /// message count (zero for idle UEs — earth-fixed tracking areas).
    pub fn bill_sweep(&mut self, costs: &ProcedureCosts, connected: bool) -> u32 {
        if connected {
            self.local_handovers += 1;
            self.spacecore_msgs += costs.local_handover as u64;
            self.legacy_msgs += costs.legacy_handover as u64;
            costs.local_handover
        } else {
            self.idle_sweeps += 1;
            self.legacy_msgs += costs.legacy_idle_sweep as u64;
            0
        }
    }

    /// Bill a UE crossing a geospatial cell; returns the SpaceCore-side
    /// message count (C4 in both designs).
    pub fn bill_crossing(&mut self, costs: &ProcedureCosts) -> u32 {
        self.cell_crossings += 1;
        self.spacecore_msgs += costs.cell_crossing as u64;
        self.legacy_msgs += costs.cell_crossing as u64;
        costs.cell_crossing
    }
}

/// Dense per-cell overload/admission-control windows for chaos
/// injection, **by cell index** (`Vec<u64>` of µs ticks — no per-UE
/// keyed collections, same statelessness rule `CellLedger` obeys).
///
/// When a serving satellite crashes, every cell in its footprint opens
/// a *storm*: `overload_until_us` marks the window during which the
/// replacement satellite sheds or defers low-priority signaling. It is
/// derived purely from the failure timeline, so every shard — under any
/// shard layout — computes identical windows. (Retries are paced from
/// the crash instant itself, see `recovery::RetryBudget`.)
#[derive(Debug, Clone)]
pub struct CellStorm {
    overload_until_us: Vec<u64>,
}

impl CellStorm {
    /// Quiet state over `cells` cells: no overload.
    pub fn new(cells: usize) -> Self {
        Self {
            overload_until_us: vec![0; cells],
        }
    }

    /// Open a storm over a contiguous cell range (a crashed satellite's
    /// footprint): extend the overload window to `until_us`
    /// (overlapping storms keep the later close).
    pub fn open(&mut self, cells: std::ops::Range<usize>, until_us: u64) {
        for c in cells {
            self.overload_until_us[c] = self.overload_until_us[c].max(until_us);
        }
    }

    /// Is the cell's serving satellite inside an overload window at
    /// `now_us`?
    pub fn overloaded(&self, cell: usize, now_us: u64) -> bool {
        now_us < self.overload_until_us[cell]
    }
}

/// Additive robustness tallies for one shard of the chaos soak:
/// drop/re-establishment counts, the overload-shedding ledger, and the
/// recovery signaling bill under both designs. Merging is plain `+=`,
/// like [`ShardStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Sessions dropped by satellite crashes.
    pub dropped: u64,
    /// Re-establishment attempts (paced first tries plus retries).
    pub reattach_attempts: u64,
    /// Attempts that failed (satellite still down, link down, burst loss).
    pub reattach_failures: u64,
    /// Sessions successfully re-established locally.
    pub reattached: u64,
    /// Sessions that exhausted the retry budget and were declared lost.
    pub budget_exhausted: u64,
    /// Connected-UE sweeps whose handover signaling was deferred by the
    /// overload gate.
    pub deferred_handovers: u64,
    /// RRC releases deferred by the overload gate.
    pub deferred_releases: u64,
    /// Cell-crossing C4 updates shed (dropped outright) by the gate.
    pub shed_crossings: u64,
    /// Fresh establishments deferred because the serving satellite was
    /// down at arrival.
    pub deferred_establishments: u64,
    /// Attempts killed by a loss-burst window.
    pub burst_losses: u64,
    /// Recovery signaling billed to the SpaceCore design.
    pub spacecore_msgs: u64,
    /// Recovery signaling billed to the legacy stateful design.
    pub legacy_msgs: u64,
}

impl ChaosStats {
    /// Merge another shard's tallies into this one.
    pub fn absorb(&mut self, o: &ChaosStats) {
        self.dropped += o.dropped;
        self.reattach_attempts += o.reattach_attempts;
        self.reattach_failures += o.reattach_failures;
        self.reattached += o.reattached;
        self.budget_exhausted += o.budget_exhausted;
        self.deferred_handovers += o.deferred_handovers;
        self.deferred_releases += o.deferred_releases;
        self.shed_crossings += o.shed_crossings;
        self.deferred_establishments += o.deferred_establishments;
        self.burst_losses += o.burst_losses;
        self.spacecore_msgs += o.spacecore_msgs;
        self.legacy_msgs += o.legacy_msgs;
    }

    /// Bill a failed re-establishment attempt (one wasted probe each
    /// design); returns the SpaceCore-side message count.
    pub fn bill_attempt_failure(&mut self, costs: &RecoveryCosts) -> u32 {
        self.reattach_attempts += 1;
        self.reattach_failures += 1;
        self.spacecore_msgs += costs.probe_messages as u64;
        self.legacy_msgs += costs.probe_messages as u64;
        costs.probe_messages
    }

    /// Bill a successful local re-establishment (4 messages SpaceCore,
    /// the 13-message home-routed re-registration legacy); returns the
    /// SpaceCore-side message count.
    pub fn bill_reattach(&mut self, costs: &RecoveryCosts) -> u32 {
        self.reattach_attempts += 1;
        self.reattached += 1;
        self.spacecore_msgs += costs.local_messages as u64;
        self.legacy_msgs += costs.legacy_messages as u64;
        costs.local_messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_covers_every_cell_contiguously() {
        for (cells, shards) in [(1584, 64), (1584, 7), (66, 8), (10, 10), (5, 64), (1, 1)] {
            let m = ShardMap::new(cells, shards);
            assert!(m.shards() >= 1 && m.shards() <= cells);
            let mut owner_by_range = vec![usize::MAX; cells];
            for s in 0..m.shards() {
                for c in m.range(s) {
                    assert_eq!(owner_by_range[c], usize::MAX, "cell {c} owned twice");
                    owner_by_range[c] = s;
                }
            }
            for (c, &owner) in owner_by_range.iter().enumerate() {
                assert_eq!(owner, m.shard_of(c), "cells={cells} shards={shards} cell={c}");
            }
        }
    }

    #[test]
    fn cell_index_roundtrips_in_iter_order() {
        let grid = CellGrid::new(53f64.to_radians(), 72, 22);
        for (i, id) in grid.iter_cells().enumerate() {
            assert_eq!(cell_index(&grid, id), i);
            assert_eq!(cell_at(&grid, i), id);
        }
    }

    #[test]
    fn shard_map_is_balanced_within_one_cell() {
        let m = ShardMap::new(1584, 64);
        let sizes: Vec<usize> = (0..m.shards()).map(|s| m.range(s).len()).collect();
        let (min, max) = (sizes.iter().min().copied(), sizes.iter().max().copied());
        assert!(max.zip(min).is_some_and(|(hi, lo)| hi - lo <= 1), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 1584);
    }

    #[test]
    fn ledger_busy_integral_clamps_to_window() {
        // Window [10, 20]; one session from t=5 to t=15, another from
        // t=12 to t=30 → integral = 1·(15−10) + 1·(20−12) = 13 s.
        let mut l = CellLedger::new(4, 10.0, 20.0);
        l.connect(0, 5.0);
        l.connect(1, 12.0);
        l.release(0, 15.0);
        l.finish();
        assert_eq!(l.busy_us(), 13_000_000);
        assert_eq!(l.cell_active().iter().sum::<u32>(), 1);
        assert_eq!(l.cell_active(), &[0, 1, 0, 0]);
    }

    #[test]
    fn ledger_move_session_keeps_totals() {
        let mut l = CellLedger::new(3, 0.0, 10.0);
        l.connect(0, 1.0);
        l.move_session(0, 2);
        assert_eq!(l.cell_active().iter().sum::<u32>(), 1);
        assert_eq!(l.cell_active(), &[0, 0, 1]);
        l.release(2, 4.0);
        l.finish();
        assert_eq!(l.busy_us(), 3_000_000);
    }

    #[test]
    fn costs_follow_the_decision_table() {
        let c = ProcedureCosts::paper();
        assert_eq!(c.local_establishment, 4);
        assert_eq!(c.legacy_establishment, 13);
        assert_eq!(c.local_handover, 3);
        assert!(c.legacy_handover > c.local_handover);
        assert_eq!(c.legacy_idle_sweep, 12);
        assert_eq!(c.cell_crossing, 12);
    }

    #[test]
    fn stats_absorb_matches_single_stream() {
        let costs = ProcedureCosts::paper();
        let mut whole = ShardStats::default();
        let mut a = ShardStats::default();
        let mut b = ShardStats::default();
        for i in 0..10u32 {
            let connected = i % 3 == 0;
            whole.bill_arrival(&costs, connected);
            whole.bill_sweep(&costs, connected);
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            part.bill_arrival(&costs, connected);
            part.bill_sweep(&costs, connected);
        }
        whole.bill_release(&costs);
        whole.bill_crossing(&costs);
        a.bill_release(&costs);
        b.bill_crossing(&costs);
        a.absorb(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn cell_storm_windows_merge_by_latest_close() {
        let mut s = CellStorm::new(10);
        assert!((0..10).all(|c| !s.overloaded(c, 0)));
        s.open(2..5, 5_000_000);
        assert!(s.overloaded(3, 4_999_999) && !s.overloaded(3, 5_000_000));
        assert!(!s.overloaded(5, 2_000_000), "outside the footprint");
        // A second overlapping storm never shortens the overload window.
        s.open(3..6, 4_000_000);
        assert!(s.overloaded(3, 4_500_000), "earlier window still open");
        assert!(s.overloaded(5, 3_999_999));
        assert_eq!((0..10).filter(|&c| s.overloaded(c, 3_000_000)).count(), 4);
    }

    #[test]
    fn chaos_stats_absorb_matches_single_stream() {
        let costs = RecoveryCosts::paper();
        let mut whole = ChaosStats::default();
        let mut a = ChaosStats::default();
        let mut b = ChaosStats::default();
        for i in 0..9u32 {
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            if i % 3 == 0 {
                whole.bill_attempt_failure(&costs);
                part.bill_attempt_failure(&costs);
            } else {
                whole.bill_reattach(&costs);
                part.bill_reattach(&costs);
            }
        }
        whole.dropped += 4;
        a.dropped += 4;
        a.absorb(&b);
        assert_eq!(a, whole);
        assert_eq!(whole.reattach_attempts, whole.reattached + whole.reattach_failures);
        // The stateless recovery bill stays far below the home-routed one.
        assert!(whole.legacy_msgs > 2 * whole.spacecore_msgs);
    }

    #[test]
    fn spacecore_bill_is_far_below_legacy() {
        // The headline: under the paper's churn mix the idle-sweep C4s
        // dominate the legacy bill and vanish under SpaceCore.
        let costs = ProcedureCosts::paper();
        let mut s = ShardStats::default();
        for i in 0..1000u32 {
            s.bill_sweep(&costs, i % 9 == 0); // ~11% active
        }
        assert!(s.legacy_msgs > 5 * s.spacecore_msgs);
    }
}
