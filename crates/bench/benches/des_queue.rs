//! Criterion micro-benches for the DES scheduler hot paths: the
//! calendar-queue [`EventQueue`] against the retained binary-heap
//! [`ReferenceQueue`] on three workload shapes (a steady-state hold, a
//! fig10-shaped signaling storm and an ext_chaos-shaped long-horizon
//! hold), each written once and driven through both queues, plus the
//! single-pop `run_until` against the peek-then-pop loop it replaced.
//! Whole experiment runs are timed by `perfbench/`.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sc_netsim::des::{reference::ReferenceQueue, EventQueue};

/// The two queue flavours under one face so each workload is written
/// once.
trait Des: Default {
    fn schedule(&mut self, t: f64, v: u32);
    fn pop_tv(&mut self) -> Option<(f64, u32)>;
}

impl Des for EventQueue<u32> {
    fn schedule(&mut self, t: f64, v: u32) {
        EventQueue::schedule(self, t, v);
    }

    fn pop_tv(&mut self) -> Option<(f64, u32)> {
        self.pop().map(|e| (e.time, e.event))
    }
}

impl Des for ReferenceQueue<u32> {
    fn schedule(&mut self, t: f64, v: u32) {
        ReferenceQueue::schedule(self, t, v);
    }

    fn pop_tv(&mut self) -> Option<(f64, u32)> {
        self.pop().map(|e| (e.time, e.event))
    }
}

/// Deterministic xorshift64* stream; the same seed drives both queues
/// so they see identical workloads.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const SEED: u64 = 0x5EED_CAFE_F00D_BEEF;

/// Steady-state hold: 10 000 events in flight, each pop reschedules
/// one event further out, 50 000 pops total.
fn hold<Q: Des>() -> u64 {
    const PENDING: u32 = 10_000;
    const CHURN: u64 = 50_000;
    let mut q = Q::default();
    for v in 0..PENDING {
        q.schedule(f64::from(v % 512) * 0.7, v);
    }
    let mut n = 0;
    while n < CHURN {
        let Some((t, v)) = q.pop_tv() else { break };
        q.schedule(t + 0.3 + f64::from(v % 97) * 0.11, v);
        n += 1;
    }
    n
}

/// fig10-shaped: 30 000 concurrent signaling procedures — fig10's
/// top swept satellite capacity (30K UEs) under a signaling storm —
/// each a chain of 24 steps a few simulated ms apart: short horizons,
/// heavy ties, everything in the current calendar day.
fn fig10_shaped<Q: Des>() -> u64 {
    const PROCS: u32 = 30_000;
    const STEPS: u32 = 24;
    let (mut q, mut rng) = (Q::default(), Rng(SEED));
    for p in 0..PROCS {
        q.schedule(rng.unit() * 0.002, p * STEPS);
    }
    let mut processed = 0;
    while let Some((t, v)) = q.pop_tv() {
        processed += 1;
        if (v + 1) % STEPS != 0 {
            q.schedule(t + 0.001 + rng.unit() * 0.004, v + 1);
        }
    }
    processed
}

/// ext_chaos-shaped: a 20 000-event steady-state hold over hours of
/// simulated time — the wheel and (rarely) the overflow heap carry
/// the load, as in the chaos timeline's long fault/recovery arcs.
fn ext_chaos_shaped<Q: Des>() -> u64 {
    const PENDING: u32 = 20_000;
    const TOTAL: u64 = 400_000;
    let (mut q, mut rng) = (Q::default(), Rng(SEED));
    for v in 0..PENDING {
        q.schedule(rng.unit() * 3_600.0, v);
    }
    let mut processed = 0;
    while processed < TOTAL {
        let Some((t, v)) = q.pop_tv() else { break };
        processed += 1;
        q.schedule(t + 0.1 + rng.unit() * 240.0, v);
    }
    while q.pop_tv().is_some() {
        processed += 1;
    }
    processed
}

const DRAIN_PENDING: u32 = 10_000;

fn drain_run_until() -> u64 {
    let mut q = EventQueue::new();
    for v in 0..DRAIN_PENDING {
        q.schedule(f64::from(v % 600) + f64::from(v % 7) * 0.01, v);
    }
    let mut horizon = 0.0;
    let mut n = 0u64;
    while !q.is_empty() {
        horizon += 1.0;
        n += q.run_until(horizon, |_, _, _| ()) as u64;
    }
    n
}

fn drain_peek_then_pop() -> u64 {
    let mut q = ReferenceQueue::new();
    for v in 0..DRAIN_PENDING {
        q.schedule(f64::from(v % 600) + f64::from(v % 7) * 0.01, v);
    }
    let mut horizon = 0.0;
    let mut n = 0u64;
    while !q.is_empty() {
        horizon += 1.0;
        loop {
            match q.peek() {
                Some(ev) if ev.time <= horizon => {}
                _ => break,
            }
            q.pop();
            n += 1;
        }
    }
    n
}

/// Bench one workload shape through both queues, after checking that
/// they pop the same number of events.
fn queue_pair(c: &mut Criterion, shape: &str, calendar: fn() -> u64, heap: fn() -> u64) {
    assert_eq!(calendar(), heap(), "{shape}: workloads diverged between queues");
    c.bench_function(&format!("des_queue::{shape}/calendar"), |b| {
        b.iter(|| black_box(calendar()))
    });
    c.bench_function(&format!("des_queue::{shape}/heap"), |b| b.iter(|| black_box(heap())));
}

type Cal = EventQueue<u32>;
type Heap = ReferenceQueue<u32>;

fn bench(c: &mut Criterion) {
    queue_pair(c, "hold", hold::<Cal>, hold::<Heap>);
    queue_pair(c, "fig10_shaped", fig10_shaped::<Cal>, fig10_shaped::<Heap>);
    queue_pair(c, "ext_chaos_shaped", ext_chaos_shaped::<Cal>, ext_chaos_shaped::<Heap>);
    c.bench_function("des_queue::run_until/single_pop", |b| {
        b.iter(|| black_box(drain_run_until()))
    });
    c.bench_function("des_queue::run_until/peek_then_pop", |b| {
        b.iter(|| black_box(drain_peek_then_pop()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
