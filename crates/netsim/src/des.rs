//! Deterministic discrete-event scheduler.
//!
//! A calendar-queue scheduler with one hard guarantee the emulation
//! relies on: **determinism**. Events are ordered by timestamp and, at
//! equal timestamps, by insertion sequence (FIFO). Replaying the same
//! workload therefore produces identical traces — the property that
//! makes every figure in EXPERIMENTS.md regenerable bit-for-bit.
//!
//! # Structure
//!
//! The queue partitions simulated time into fixed-width *days* of
//! [`EventQueue::BUCKET_WIDTH_S`] seconds each and keeps four tiers:
//!
//! - `active`: the earliest pending events, kept sorted by
//!   `(time, seq)`. Pops are `pop_front` — O(1).
//! - `rungs`: ladder-style sub-day wheels, mounted lazily when an
//!   activated bucket is too dense to sort wholesale (a signaling
//!   storm packs thousands of events into one day). An overloaded
//!   rung slot recursively spawns a finer rung, so the sorted bottom
//!   stays small no matter how skewed the event density; builds are
//!   counted as `netsim.des.rung_builds`.
//! - `wheel`: unsorted buckets for the next [`EventQueue::WHEEL_SLOTS`]
//!   days, indexed by `day % WHEEL_SLOTS`, with a word bitmap marking
//!   occupied slots. Scheduling into the wheel is O(1); a bucket is
//!   promoted when its day becomes current.
//! - `overflow`: a binary heap for events beyond the wheel horizon.
//!   Spills are rare in real workloads and counted as
//!   `netsim.des.wheel_spills`; spilled events migrate back into the
//!   wheel as the calendar advances.
//!
//! Every tier orders by the same `(time, seq)` key, so the pop sequence
//! is identical to the reference binary-heap scheduler kept in
//! [`mod@reference`] — `crates/netsim/tests/calendar_props.rs`
//! property-tests the equivalence on random workloads.

use sc_obs::Recorder;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<E> {
    /// Simulated time, seconds.
    pub time: f64,
    /// Insertion sequence number (tie-breaker).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> Eq for ScheduledEvent<E> where E: PartialEq {}

impl<E: PartialEq> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: PartialEq> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Ascending `(time, seq)` — the canonical event order.
fn event_order<E>(a: &ScheduledEvent<E>, b: &ScheduledEvent<E>) -> Ordering {
    a.time
        .total_cmp(&b.time)
        .then_with(|| a.seq.cmp(&b.seq))
}

const WHEEL_SLOTS: usize = 256;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// Slots per sub-day rung.
const RUNG_SLOTS: usize = 128;
/// A bucket at or below this size is sorted straight into `active`;
/// above it, it is redistributed into a finer rung instead. Sorting a
/// few hundred events wholesale beats a rung's slot-distribution pass,
/// so this sits well above the insert-path [`ACTIVE_SPLIT`].
const SORT_THRESHOLD: usize = 1024;
/// Narrowest rung worth building; below this (or when every event in
/// a bucket carries the same timestamp) subdivision cannot spread the
/// load, so the bucket is sorted wholesale.
const MIN_RUNG_WIDTH_S: f64 = 1e-9;
/// When `active` grows past this many events, its tail is split off
/// into a new deepest rung (storms schedule straight into the current
/// day and would otherwise degrade sorted insertion to O(n) memmoves).
/// Deliberately lower than [`SORT_THRESHOLD`]: a one-shot sort of an
/// activated bucket is cheap, but a *dense insert path* pays per
/// event.
const ACTIVE_SPLIT: usize = 128;
/// Sorted head retained in `active` by a split.
const SPLIT_KEEP: usize = ACTIVE_SPLIT / 4;

/// A ladder rung: a fine one-shot wheel inside the current calendar
/// day. Rungs are built lazily when an activated bucket is too large
/// to sort (`SORT_THRESHOLD`) or `active` grows dense
/// ([`ACTIVE_SPLIT`]), and nest: an overloaded bucket spawns a finer
/// rung. The rung *routes* for the whole window `[start, window_end)`
/// it took over from its parent, but its slots span only the content
/// range `[start, start + RUNG_SLOTS*slot_width ≈ latest]` actually
/// occupied at build time — sparse storms cluster in a sliver of
/// their day, and window-proportional slots would degenerate to one
/// hot slot. Later arrivals past the content range collect in `tail`,
/// promoted once after the slots drain. Consumed boundaries keep the
/// time axis partitioned as
/// `active < deepest rung < … < shallowest rung < wheel < overflow`.
#[derive(Debug, Clone)]
struct Rung<E> {
    /// Content start; slot `i` covers
    /// `[start + i*slot_width, start + (i+1)*slot_width)`.
    start: f64,
    slot_width: f64,
    /// `1.0 / slot_width`, precomputed: slot indexing is one multiply
    /// (monotone under IEEE rounding, like the division it replaces).
    inv_slot_width: f64,
    /// Routing window end (exclusive): the parent's consumed boundary
    /// at build time. Everything in `[slots_end, window_end)` routes
    /// to `tail`.
    window_end: f64,
    /// Next slot to promote; slots below it are already consumed, and
    /// the consumed boundary (`start + cursor*slot_width`) is the
    /// upper bound of the `active` tier below this rung.
    cursor: usize,
    /// Events held across all remaining slots plus the tail.
    len: usize,
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Events past the content range but inside the routing window;
    /// strictly later than every slotted event, promoted last.
    tail: Vec<ScheduledEvent<E>>,
    /// The tail has been promoted: the rung is spent, and its
    /// boundary jumps to `window_end` so late arrivals go to the
    /// sorted `active` tier (the taken tail may already sit there —
    /// re-filling `tail` behind it would pop out of order).
    tail_taken: bool,
}

impl<E> Rung<E> {
    /// Build with slots over the content range `[start, latest]`,
    /// routing for `[start, window_end)`, and distribute `bucket` —
    /// O(n). Caller guarantees `latest - start > MIN_RUNG_WIDTH_S`.
    fn build(start: f64, latest: f64, window_end: f64, bucket: Vec<ScheduledEvent<E>>) -> Self {
        // Pre-size each slot for an even spread (×2 slack): one
        // allocation up front instead of a doubling ladder of
        // reallocs per slot as events stream in.
        let slot_cap = (bucket.len() / RUNG_SLOTS + 1) * 2;
        let slot_width = (latest - start) / RUNG_SLOTS as f64;
        let mut r = Self {
            start,
            slot_width,
            inv_slot_width: 1.0 / slot_width,
            window_end,
            cursor: 0,
            len: 0,
            slots: std::iter::repeat_with(|| Vec::with_capacity(slot_cap))
                .take(RUNG_SLOTS)
                .collect(),
            // The tail refills to roughly the build population before
            // the slots drain (steady-state holds).
            tail: Vec::with_capacity(bucket.len()),
            tail_taken: false,
        };
        for ev in bucket {
            r.insert(ev);
        }
        r
    }

    /// Routing window end (exclusive).
    fn end(&self) -> f64 {
        self.window_end
    }

    /// End of the slotted content range (exclusive).
    fn slots_end(&self) -> f64 {
        self.start + self.slot_width * RUNG_SLOTS as f64
    }

    /// Upper bound of everything already consumed from this rung: the
    /// tier below (ultimately `active`) covers times before it.
    fn boundary(&self) -> f64 {
        if self.tail_taken {
            self.window_end
        } else {
            self.start + self.cursor as f64 * self.slot_width
        }
    }

    /// O(1) insert: a slot push for the content range, a tail push
    /// beyond it. The slot index is a monotone function of the
    /// timestamp (clamped to the unconsumed range), and the tail only
    /// ever holds times past every slot, so cross-bucket order can
    /// never invert regardless of float rounding.
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        if ev.time >= self.slots_end() {
            self.tail.push(ev);
        } else {
            let idx = ((ev.time - self.start) * self.inv_slot_width) as usize;
            let idx = idx.clamp(self.cursor, RUNG_SLOTS - 1);
            self.slots[idx].push(ev);
        }
        self.len += 1;
    }

    /// Take the next non-empty bucket — slots in cursor order, then
    /// the tail — with its consumed-boundary end. `None` when the
    /// rung is spent.
    fn take_next_slot(&mut self) -> Option<(Vec<ScheduledEvent<E>>, f64)> {
        while self.cursor < RUNG_SLOTS {
            self.cursor += 1;
            if !self.slots[self.cursor - 1].is_empty() {
                let bucket = std::mem::take(&mut self.slots[self.cursor - 1]);
                self.len -= bucket.len();
                return Some((bucket, self.boundary()));
            }
        }
        if !self.tail_taken && !self.tail.is_empty() {
            self.tail_taken = true;
            let bucket = std::mem::take(&mut self.tail);
            self.len -= bucket.len();
            return Some((bucket, self.window_end));
        }
        None
    }
}

/// A deterministic event queue.
///
/// ```
/// use sc_netsim::des::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// q.schedule(1.0, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().event, "later");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The earliest pending events, sorted by `(time, seq)`; the pop
    /// tier. Covers every pending time below the deepest rung's
    /// consumed boundary (or the whole current day when no rungs are
    /// mounted).
    active: VecDeque<ScheduledEvent<E>>,
    /// Sub-day ladder rungs, shallowest first; `rungs.last()` is the
    /// finest and earliest. Mounted on demand when a day holds too
    /// many events to sort wholesale.
    rungs: Vec<Rung<E>>,
    /// Future-day buckets; slot `day % WHEEL_SLOTS`. Empty (never
    /// allocated) until an event actually lands beyond the current day,
    /// so short procedure sims pay nothing for the wheel.
    wheel: Vec<Vec<ScheduledEvent<E>>>,
    /// Bitmap of occupied wheel slots.
    occupied: [u64; BITMAP_WORDS],
    /// Events at `WHEEL_SLOTS` or more days past `base_day`.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Day of the `active` tier; wheel slots cover
    /// `(base_day, base_day + WHEEL_SLOTS)`.
    base_day: u64,
    pending: usize,
    next_seq: u64,
    now: f64,
    /// Telemetry handle (disabled by default; see `sc-obs`). Counts
    /// `netsim.des.scheduled` / `netsim.des.processed` /
    /// `netsim.des.wheel_spills`, and per-window series
    /// `netsim.des.processed_per_window` (events per 1.0 sim-time
    /// unit) plus the `netsim.des.queue_depth` gauge series sampled at
    /// each processed event — the time axis of a load storm.
    obs: Recorder,
}

impl<E: PartialEq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: PartialEq> EventQueue<E> {
    /// Calendar bucket width, seconds of simulated time per day.
    pub const BUCKET_WIDTH_S: f64 = 1.0;
    /// Number of wheel slots (days covered before spilling to the
    /// overflow heap).
    pub const WHEEL_SLOTS: usize = WHEEL_SLOTS;

    pub fn new() -> Self {
        Self {
            active: VecDeque::new(),
            rungs: Vec::new(),
            wheel: Vec::new(),
            occupied: [0; BITMAP_WORDS],
            overflow: BinaryHeap::new(),
            base_day: 0,
            pending: 0,
            next_seq: 0,
            now: 0.0,
            obs: Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder; every subsequent schedule/pop is
    /// counted under `netsim.des.*`. Timestamps stay simulated time —
    /// this queue never reads a wall clock.
    pub fn attach_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Return the queue to its initial state (time 0, empty, sequence
    /// counter rewound) while keeping bucket allocations for reuse.
    /// Lets a simulation arena run many procedures through one queue
    /// without re-allocating per run; a reset queue behaves exactly
    /// like a fresh one.
    pub fn reset(&mut self) {
        self.active.clear();
        self.rungs.clear();
        for w in 0..BITMAP_WORDS {
            let mut word = self.occupied[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                self.wheel[w * 64 + bit].clear();
                word &= word - 1;
            }
        }
        self.occupied = [0; BITMAP_WORDS];
        self.overflow.clear();
        self.base_day = 0;
        self.pending = 0;
        self.next_seq = 0;
        self.now = 0.0;
    }

    /// Calendar day of a (non-negative, finite) timestamp. Saturates
    /// for times beyond `u64` days, which only ever classifies an
    /// event into the overflow heap — ordering there is exact.
    fn day_of(time: f64) -> u64 {
        (time / Self::BUCKET_WIDTH_S) as u64
    }

    /// Schedule an event at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is not finite or is before the current time
    /// (causality violation).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(
            time >= self.now,
            "causality violation: scheduling at {time} but now is {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.obs.inc("netsim.des.scheduled", 1);
        self.pending += 1;
        let ev = ScheduledEvent { time, seq, event };
        let day = Self::day_of(time);
        if day <= self.base_day {
            self.insert_current(ev);
        } else if day - self.base_day < WHEEL_SLOTS as u64 {
            if self.wheel.is_empty() {
                self.wheel = std::iter::repeat_with(Vec::new).take(WHEEL_SLOTS).collect();
            }
            let slot = (day % WHEEL_SLOTS as u64) as usize;
            self.wheel[slot].push(ev);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.obs.inc("netsim.des.wheel_spills", 1);
            self.overflow.push(ev);
        }
    }

    /// Schedule an event `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Place an event belonging to the current (or an earlier) day:
    /// into the first rung window that covers its timestamp — an O(1)
    /// slot push — or, below the deepest rung's consumed boundary,
    /// into the sorted `active` tier. The fresh event holds the
    /// largest seq, so among equal timestamps it lands last — FIFO by
    /// construction (rung slots preserve push order for the later
    /// promotion sort, which orders by `(time, seq)`).
    fn insert_current(&mut self, ev: ScheduledEvent<E>) {
        for r in self.rungs.iter_mut().rev() {
            if ev.time < r.boundary() {
                break; // earlier than every rung window: active tier
            }
            if ev.time < r.end() {
                r.insert(ev);
                return;
            }
        }
        let pos = self
            .active
            .partition_point(|e| e.time.total_cmp(&ev.time) != Ordering::Greater);
        self.active.insert(pos, ev);
        if self.active.len() > ACTIVE_SPLIT {
            self.split_active();
        }
    }

    /// `active` has grown dense (a storm is scheduling straight into
    /// the current day, which never passes through a promotion): keep
    /// a short sorted head as the pop tier and hang the tail on a new
    /// deepest rung, so subsequent inserts become O(1) slot pushes
    /// instead of O(n) sorted inserts.
    fn split_active(&mut self) {
        let keep = SPLIT_KEEP;
        let end = match self.rungs.last() {
            Some(r) => r.boundary(),
            None => (self.base_day + 1) as f64 * Self::BUCKET_WIDTH_S,
        };
        let (start, latest) = match (self.active.get(keep), self.active.back()) {
            (Some(first), Some(last)) => (first.time, last.time),
            _ => return,
        };
        // Degenerate tails (mass ties, vanishing window) stay put:
        // their sorted inserts are near-back and cheap anyway.
        if latest - start <= MIN_RUNG_WIDTH_S || end - start <= MIN_RUNG_WIDTH_S {
            return;
        }
        let tail: Vec<ScheduledEvent<E>> = self.active.drain(keep..).collect();
        self.obs.inc("netsim.des.rung_builds", 1);
        self.rungs.push(Rung::build(start, latest, end, tail));
    }

    /// Promote a bucket of events (a rung slot or a calendar day whose
    /// window ends at `end`): small buckets are sorted straight into
    /// `active`; large ones are redistributed into a finer rung, which
    /// [`Self::ensure_active`] then drains slot by slot.
    fn promote(&mut self, mut bucket: Vec<ScheduledEvent<E>>, end: f64) {
        if bucket.len() > SORT_THRESHOLD {
            let (mut start, mut latest) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in &bucket {
                start = start.min(e.time);
                latest = latest.max(e.time);
            }
            // Subdivide only when the timestamps actually spread out;
            // a mass of ties (or a vanishing window) sorts in one go.
            if latest - start > MIN_RUNG_WIDTH_S && end - start > MIN_RUNG_WIDTH_S {
                self.obs.inc("netsim.des.rung_builds", 1);
                self.rungs.push(Rung::build(start, latest, end, bucket));
                return;
            }
        }
        bucket.sort_unstable_by(event_order);
        self.adopt(bucket);
    }

    /// Hand a sorted bucket to the pop tier: O(1) buffer adoption in
    /// the common case (promotion only happens once the tier drains).
    fn adopt(&mut self, bucket: Vec<ScheduledEvent<E>>) {
        if self.active.is_empty() {
            self.active = VecDeque::from(bucket);
        } else {
            self.active.extend(bucket);
        }
    }

    /// First occupied wheel day after `base_day`, with its slot.
    fn next_wheel_day(&self) -> Option<(u64, usize)> {
        if self.occupied == [0; BITMAP_WORDS] {
            return None;
        }
        let start = ((self.base_day + 1) % WHEEL_SLOTS as u64) as usize;
        for step in 0..WHEEL_SLOTS {
            let slot = (start + step) % WHEEL_SLOTS;
            if self.occupied[slot / 64] >> (slot % 64) & 1 == 1 {
                return Some((self.base_day + 1 + step as u64, slot));
            }
        }
        None
    }

    /// Refill the pop path until `active` holds the next event (or
    /// everything is drained): promote rung slots deepest-first, then
    /// fall back to the next calendar day.
    fn ensure_active(&mut self) {
        while self.active.is_empty() {
            if self.rungs.is_empty() {
                if !self.activate_next_day() {
                    return;
                }
                continue;
            }
            match self.rungs.last_mut().and_then(Rung::take_next_slot) {
                Some((bucket, end)) => self.promote(bucket, end),
                None => {
                    self.rungs.pop();
                }
            }
        }
    }

    /// Advance `base_day` to the next day holding events and promote
    /// that day's bucket. Returns false when the calendar is empty.
    ///
    /// The next day is the *earlier* of the next occupied wheel slot
    /// and the earliest overflow day: overflow events spill relative
    /// to the `base_day` at schedule time, so once the clock advances
    /// an overflow day can predate everything left in the wheel.
    /// Whenever the calendar lands on a new day, overflow events that
    /// now fit the wheel horizon are migrated in.
    fn activate_next_day(&mut self) -> bool {
        let wheel_next = self.next_wheel_day();
        let overflow_day = self.overflow.peek().map(|ev| Self::day_of(ev.time));
        let target = match (wheel_next.map(|(d, _)| d), overflow_day) {
            (None, None) => return false,
            (Some(d), None) => d,
            (None, Some(d)) => d,
            (Some(w), Some(o)) => w.min(o),
        };
        self.base_day = target;
        let mut current = Vec::new();
        if let Some((day, slot)) = wheel_next {
            if day == target {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                current.append(&mut self.wheel[slot]);
            }
        }
        // Migrate every overflow event the wheel can now hold.
        while let Some(head) = self.overflow.peek() {
            let day = Self::day_of(head.time);
            if day - self.base_day >= WHEEL_SLOTS as u64 {
                break;
            }
            let Some(ev) = self.overflow.pop() else { break };
            if day == self.base_day {
                current.push(ev);
            } else {
                if self.wheel.is_empty() {
                    self.wheel =
                        std::iter::repeat_with(Vec::new).take(WHEEL_SLOTS).collect();
                }
                let slot = (day % WHEEL_SLOTS as u64) as usize;
                self.wheel[slot].push(ev);
                self.occupied[slot / 64] |= 1 << (slot % 64);
            }
        }
        let day_end = (self.base_day + 1) as f64 * Self::BUCKET_WIDTH_S;
        self.promote(current, day_end);
        true
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.ensure_active();
        let ev = self.active.pop_front()?;
        self.pending -= 1;
        self.now = ev.time;
        self.obs.inc("netsim.des.processed", 1);
        self.obs.series_inc("netsim.des.processed_per_window", ev.time, 1);
        self.obs
            .series_gauge("netsim.des.queue_depth", ev.time, self.pending as f64);
        Some(ev)
    }

    /// Peek at the earliest event without consuming it. Tiers are
    /// examined in time-partition order: `active`, then the rungs
    /// (deepest first — their windows ascend toward the shallowest),
    /// then the calendar, where like `activate_next_day` the
    /// wheel's next day and the overflow minimum are both candidates —
    /// either can hold the earliest event once the clock has advanced.
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        if let Some(ev) = self.active.front() {
            return Some(ev);
        }
        for r in self.rungs.iter().rev() {
            if r.len == 0 {
                continue;
            }
            let rung_min = r.slots[r.cursor..]
                .iter()
                .flatten()
                .chain(r.tail.iter())
                .min_by(|a, b| event_order(a, b));
            if rung_min.is_some() {
                return rung_min;
            }
        }
        let wheel_min = self
            .next_wheel_day()
            .and_then(|(_, slot)| self.wheel[slot].iter().min_by(|a, b| event_order(a, b)));
        match (wheel_min, self.overflow.peek()) {
            (Some(w), Some(o)) => {
                if event_order(w, o) == Ordering::Greater {
                    Some(o)
                } else {
                    Some(w)
                }
            }
            (w, o) => w.or(o),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Drain and process events until the queue is empty or `horizon` is
    /// passed; `handler` may schedule follow-up events through the queue
    /// it is handed. Returns the number of events processed.
    ///
    /// One queue operation per event: the current day's bucket is
    /// already sorted, so the horizon check reads `active.front()` —
    /// O(1) — and the event is taken with a single `pop_front`. (The
    /// binary-heap scheduler this replaced paid two O(log n) heap
    /// operations per event here: a `peek` sift plus a `pop` sift.)
    pub fn run_until(&mut self, horizon: f64, mut handler: impl FnMut(&mut Self, f64, E)) -> usize {
        let mut processed = 0;
        loop {
            self.ensure_active();
            match self.active.front() {
                Some(ev) if ev.time <= horizon => {}
                _ => break,
            }
            let Some(ev) = self.active.pop_front() else { break };
            self.pending -= 1;
            self.now = ev.time;
            self.obs.inc("netsim.des.processed", 1);
            self.obs.series_inc("netsim.des.processed_per_window", ev.time, 1);
            self.obs
                .series_gauge("netsim.des.queue_depth", ev.time, self.pending as f64);
            handler(self, ev.time, ev.event);
            processed += 1;
        }
        processed
    }

    /// Drain every event with `time < horizon` — a **half-open** batch
    /// window, unlike [`Self::run_until`]'s inclusive one — into
    /// `batch` (cleared first), in exactly the order repeated
    /// [`Self::pop`] calls would return them. Returns the batch size.
    ///
    /// This is the batch-processing face of the queue: a caller steps
    /// simulated time in fixed windows, drains each window wholesale,
    /// and processes the drained slice without re-entering the queue
    /// per event. Half-open windows compose — `[t0, t1)`, `[t1, t2)`, …
    /// partition the time axis, so `drain_until(t1)` then
    /// `drain_until(t2)` sees every event exactly once.
    ///
    /// Deferred processing is only equivalent to interleaved
    /// processing when no handler reaction can land inside the window
    /// being processed. Callers must therefore never schedule a
    /// follow-up less than one full window ahead of the event that
    /// triggered it; with windows of [`Self::BUCKET_WIDTH_S`] and
    /// minimum follow-up delays of the same width (the churn-engine
    /// regime), a reaction to an event in `[t, t + w)` lands at or
    /// past `t + w` — always a later batch. The clock still advances
    /// per drained event, so scheduling from the processing loop obeys
    /// the same causality assert as scheduling from a handler.
    pub fn drain_until(&mut self, horizon: f64, batch: &mut Vec<ScheduledEvent<E>>) -> usize {
        batch.clear();
        loop {
            self.ensure_active();
            match self.active.front() {
                Some(ev) if ev.time < horizon => {}
                _ => break,
            }
            let Some(ev) = self.active.pop_front() else { break };
            self.pending -= 1;
            self.now = ev.time;
            self.obs.inc("netsim.des.processed", 1);
            self.obs.series_inc("netsim.des.processed_per_window", ev.time, 1);
            self.obs
                .series_gauge("netsim.des.queue_depth", ev.time, self.pending as f64);
            batch.push(ev);
        }
        batch.len()
    }
}

pub mod reference {
    //! The original binary-heap scheduler, retained as an executable
    //! specification. [`ReferenceQueue`] defines the pop order the
    //! calendar queue must reproduce; differential property tests and
    //! the `sc-bench` scheduler benchmarks run both side by side.

    use super::ScheduledEvent;
    use std::collections::BinaryHeap;

    /// Minimal binary-heap event queue with the exact semantics of the
    /// pre-calendar [`super::EventQueue`].
    #[derive(Debug, Clone, Default)]
    pub struct ReferenceQueue<E: PartialEq> {
        heap: BinaryHeap<ScheduledEvent<E>>,
        next_seq: u64,
        now: f64,
    }

    impl<E: PartialEq> ReferenceQueue<E> {
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: 0.0,
            }
        }

        pub fn now(&self) -> f64 {
            self.now
        }

        /// Schedule at absolute `time`; same causality panics as
        /// [`super::EventQueue::schedule`].
        pub fn schedule(&mut self, time: f64, event: E) {
            assert!(time.is_finite(), "event time must be finite");
            assert!(
                time >= self.now,
                "causality violation: scheduling at {time} but now is {}",
                self.now
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ScheduledEvent { time, seq, event });
        }

        pub fn schedule_in(&mut self, delay: f64, event: E) {
            self.schedule(self.now + delay, event);
        }

        pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let ev = self.heap.pop()?;
            self.now = ev.time;
            Some(ev)
        }

        pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
            self.heap.peek()
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(1.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 1.5);
        q.schedule_in(0.5, ());
        assert_eq!(q.pop().map(|e| e.time), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn cannot_schedule_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    fn run_until_respects_horizon_and_cascades() {
        let mut q = EventQueue::new();
        q.schedule(0.0, 0u32);
        let mut seen = Vec::new();
        // Each event at t schedules a follow-up at t+1 with value+1.
        let n = q.run_until(5.0, |q, t, v| {
            seen.push((t, v));
            q.schedule_in(1.0, v + 1);
        });
        assert_eq!(n, 6); // t = 0,1,2,3,4,5
        assert_eq!(seen.last().map(|e| e.1), Some(5));
        // The t=6 follow-up remains pending.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_until_matches_pop_order_and_is_half_open() {
        let times = [0.0, 0.9, 1.0, 1.0, 1.5, 2.0, 700.0, 0.25];
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
            reference.schedule(t, i);
        }
        let mut batch = Vec::new();
        // Window [0, 1): strictly-before events only.
        assert_eq!(q.drain_until(1.0, &mut batch), 3);
        let got: Vec<(f64, usize)> = batch.iter().map(|e| (e.time, e.event)).collect();
        assert_eq!(got, vec![(0.0, 0), (0.25, 7), (0.9, 1)]);
        // Window [1, 2): the t = 1.0 ties pop FIFO; t = 2.0 excluded.
        q.drain_until(2.0, &mut batch);
        let got: Vec<(f64, usize)> = batch.iter().map(|e| (e.time, e.event)).collect();
        assert_eq!(got, vec![(1.0, 2), (1.0, 3), (1.5, 4)]);
        // The remaining drain picks up exactly the events at or past
        // t = 2.0, still in (time, seq) order.
        q.drain_until(f64::INFINITY, &mut batch);
        let got: Vec<(f64, usize)> = batch.iter().map(|e| (e.time, e.event)).collect();
        assert_eq!(got, vec![(2.0, 5), (700.0, 6)]);
        assert!(q.is_empty());
        // Sanity: the windowed drains together visited every event the
        // reference queue holds, in the same global order.
        let mut all = Vec::new();
        while let Some(e) = reference.pop() {
            all.push(e.event);
        }
        assert_eq!(all, vec![0, 7, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn drain_until_windows_equal_whole_pop_sequence() {
        // Windowed drains concatenated = one straight pop drain.
        let build = || {
            let mut q = EventQueue::new();
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..500u32 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let t = (rng % 10_000) as f64 / 100.0; // [0, 100)
                q.schedule(t, i);
            }
            q
        };
        let mut straight = build();
        let want: Vec<(f64, u64)> =
            std::iter::from_fn(|| straight.pop().map(|e| (e.time, e.seq))).collect();
        let mut windowed = build();
        let mut got = Vec::new();
        let mut batch = Vec::new();
        for w in 0..100u32 {
            windowed.drain_until((w + 1) as f64, &mut batch);
            got.extend(batch.iter().map(|e| (e.time, e.seq)));
        }
        assert_eq!(got, want);
        assert!(windowed.is_empty());
    }

    #[test]
    fn drain_until_advances_clock_and_allows_next_window_schedules() {
        let mut q = EventQueue::new();
        q.schedule(0.25, "a");
        q.schedule(0.75, "b");
        let mut batch = Vec::new();
        q.drain_until(1.0, &mut batch);
        assert_eq!(q.now(), 0.75);
        // A follow-up one full window ahead of the drained event is
        // always schedulable — the churn-engine contract.
        for e in &batch {
            q.schedule(e.time + 1.0, "follow-up");
        }
        q.drain_until(2.5, &mut batch);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].time, 1.25);
    }

    #[test]
    fn drain_until_counts_processed_events() {
        let rec = Recorder::new();
        let mut q = EventQueue::new();
        q.attach_recorder(rec.clone());
        for i in 0..10 {
            q.schedule(i as f64 * 0.1, i);
        }
        let mut batch = Vec::new();
        q.drain_until(0.55, &mut batch);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("netsim.des.processed"), 6);
        // All six events fall in series window 0 ([0.0, 1.0)); the
        // depth gauge holds the post-pop queue length of the last one.
        let per_window = snap
            .series
            .get("netsim.des.processed_per_window")
            .map(|d| d.points());
        assert_eq!(per_window, Some(vec![(0, 6.0)]));
        let depth = snap
            .series
            .get("netsim.des.queue_depth")
            .map(|d| d.points());
        assert_eq!(depth, Some(vec![(0, 4.0)]));
    }

    #[test]
    fn recorder_counts_schedules_and_pops() {
        let rec = Recorder::new();
        let mut q = EventQueue::new();
        q.attach_recorder(rec.clone());
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        q.pop();
        let s = rec.snapshot();
        assert_eq!(s.counter("netsim.des.scheduled"), 2);
        assert_eq!(s.counter("netsim.des.processed"), 1);
    }

    #[test]
    fn determinism_across_replays() {
        let run = || {
            let mut q = EventQueue::new();
            for i in 0..50u64 {
                q.schedule((i % 7) as f64, i);
            }
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.event))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overflow_spills_are_counted_and_ordered() {
        let rec = Recorder::new();
        let mut q = EventQueue::new();
        q.attach_recorder(rec.clone());
        // Far beyond the wheel horizon → overflow heap.
        q.schedule(1e6, "far");
        q.schedule(2e6, "farther");
        q.schedule(0.5, "near");
        let s = rec.snapshot();
        assert_eq!(s.counter("netsim.des.wheel_spills"), 2);
        assert_eq!(q.pop().map(|e| e.event), Some("near"));
        assert_eq!(q.pop().map(|e| e.event), Some("far"));
        assert_eq!(q.pop().map(|e| e.event), Some("farther"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_sees_through_all_tiers() {
        let mut q = EventQueue::new();
        q.schedule(1e7, "overflow");
        assert_eq!(q.peek().map(|e| e.event), Some("overflow"));
        q.schedule(12.25, "wheel");
        assert_eq!(q.peek().map(|e| e.event), Some("wheel"));
        q.schedule(0.125, "active");
        assert_eq!(q.peek().map(|e| e.event), Some("active"));
        assert_eq!(q.len(), 3);
        // Peek is non-destructive.
        assert_eq!(q.pop().map(|e| e.event), Some("active"));
        assert_eq!(q.pop().map(|e| e.event), Some("wheel"));
        assert_eq!(q.pop().map(|e| e.event), Some("overflow"));
    }

    #[test]
    fn overflow_migrates_into_wheel_as_clock_advances() {
        // Regression: an event spills to overflow relative to the
        // base_day at schedule time; once pops advance the calendar,
        // that day comes within the wheel horizon and may even share a
        // day with freshly wheeled events. The spilled event must pop
        // in time order, not after the whole wheel drains.
        let mut q = EventQueue::new();
        q.schedule(300.2, "overflow-early"); // day 300: beyond wheel at base_day 0
        q.schedule(100.0, "advance");
        assert_eq!(q.pop().map(|e| e.event), Some("advance"));
        q.schedule(300.7, "wheel-late"); // same day, now within the wheel
        assert_eq!(q.peek().map(|e| e.event), Some("overflow-early"));
        assert_eq!(q.pop().map(|e| e.event), Some("overflow-early"));
        assert_eq!(q.pop().map(|e| e.event), Some("wheel-late"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_after_horizon_probe_stays_ordered() {
        // run_until may advance the calendar past empty days while
        // probing the horizon; later schedules into those earlier days
        // must still pop in time order.
        let mut q = EventQueue::new();
        q.schedule(100.0, "late");
        assert_eq!(q.run_until(1.0, |_, _, _| ()), 0);
        q.schedule(2.0, "early");
        assert_eq!(q.pop().map(|e| e.event), Some("early"));
        assert_eq!(q.pop().map(|e| e.event), Some("late"));
    }

    #[test]
    fn reset_rewinds_time_sequence_and_events() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 1);
        q.schedule(400.0, 2); // wheel
        q.schedule(1e6, 3); // overflow
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), 0.0);
        // A reset queue replays exactly like a fresh one.
        q.schedule(5.0, 10);
        q.schedule(5.0, 11);
        assert_eq!(q.pop().map(|e| e.event), Some(10));
        assert_eq!(q.pop().map(|e| e.event), Some(11));
    }

    #[test]
    fn matches_reference_on_mixed_tiers() {
        let mut cal = EventQueue::new();
        let mut refq = reference::ReferenceQueue::new();
        let times = [
            0.0, 700.0, 0.0, 3.5, 1e5, 255.9, 256.0, 12.0, 12.0, 1e5, 0.25,
        ];
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(t, i);
            refq.schedule(t, i);
        }
        loop {
            let (a, b) = (cal.pop(), refq.pop());
            assert_eq!(a.is_some(), b.is_some(), "queues ended at different lengths");
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!((a.time, a.seq, a.event), (b.time, b.seq, b.event));
                }
                _ => break,
            }
        }
    }
}
