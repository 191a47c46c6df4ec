//! SpaceCore benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mload|chaosload|chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: the checked-in `results/*.json`
//! are the byte-exact references. The last stdout line is the result
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! records the host, the inputs and the timing samples. `--trace 1`
//! gives the per-layer metrics and writes the spans to
//! `perfbench/out/<workload>-seed<n>-trace.json`. See
//! `perfbench/README.md`.

mod chaos;
mod check;
mod layers;
mod probe;
mod report;
mod soak;
mod stats;
mod trace;

use check::Ops;
use report::{num, string, Metric};
use std::time::Instant;

/// Settings of one benchmark process.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads of every parallel call: the host's parallelism.
    pub threads: usize,
}

/// Timing samples behind one reported median.
pub struct Samples {
    name: &'static str,
    values: Vec<f64>,
}

impl Samples {
    pub fn new(name: &'static str, values: Vec<f64>) -> Self {
        Self { name, values }
    }

    fn json(&self) -> String {
        let (q1, q3) = stats::quartiles(&self.values).unwrap_or((f64::NAN, f64::NAN));
        let tail = stats::tail_percentile(&self.values).map_or("null".to_string(), |(k, v)| {
            format!("{{\"pct\": {k}, \"value\": {}}}", num(v))
        });
        let opt = |v: f64| if v.is_finite() { num(v) } else { "null".into() };
        format!(
            "{}: {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail\": {tail}}}",
            string(self.name),
            self.values.len(),
            opt(median_of(&self.values)),
            opt(q1),
            opt(q3),
        )
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub ops: Ops,
    pub samples: Vec<Samples>,
    /// Workload inputs, recorded with the output.
    pub inputs: Vec<(&'static str, String)>,
    pub spans: Option<Vec<trace::Span>>,
    /// The unexplained share of the serial wall, when it exceeds 10%.
    pub gap: Option<String>,
}

/// Median, or 0 for no samples (a run whose every call failed).
pub fn median_of(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Call `iter(i)` for i = 0, 1, … until `budget_s` is spent: at least
/// `min_iters` times, and never starting a call that the slowest one so
/// far says would overrun the budget.
pub fn repeat_for(budget_s: f64, min_iters: usize, mut iter: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut slowest = 0.0f64;
    let mut i = 0;
    loop {
        let t = Instant::now();
        iter(i);
        i += 1;
        slowest = slowest.max(t.elapsed().as_secs_f64());
        if i >= min_iters && start.elapsed().as_secs_f64() + slowest > budget_s {
            return i;
        }
    }
}

/// One full experiment call in span `label`, with `emu.run` and
/// `emu.serialize` as child spans, then `check` on the result and its
/// JSON. Returns the result and the JSON's length.
pub fn traced_call<R>(
    tr: &mut trace::Tracer,
    ops: &mut Ops,
    label: &'static str,
    run: impl FnOnce() -> R,
    to_json: impl FnOnce(&R) -> String,
    check: impl FnOnce(&R, &str) -> Result<(), String>,
) -> Option<(R, usize)> {
    let (out, json) = tr.span(label, |tr| {
        ops.run(label, || {
            let out = tr.span("emu.run", |_| run());
            let json = tr.span("emu.serialize", |_| to_json(&out));
            Ok((out, json))
        })
    })?;
    ops.run(label, || check(&out, &json))?;
    Some((out, json.len()))
}

/// The checked-in artifact `results/<experiment>.json`.
pub fn artifact(experiment: &str) -> Result<Vec<u8>, String> {
    let path = format!("results/{experiment}.json");
    std::fs::read(&path)
        .map_err(|e| format!("cannot read {path} (run from the repository root): {e}"))
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn host_json(ctx: &Ctx) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {}, \"profile\": \"{profile}\"}}",
        ctx.threads
    )
}

fn run(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    match (args.workload.as_str(), args.trace) {
        ("mload", false) => soak::untraced::<soak::Mload>(ctx),
        ("mload", true) => soak::traced::<soak::Mload>(ctx),
        ("chaosload", false) => soak::untraced::<soak::Chaosload>(ctx),
        ("chaosload", true) => soak::traced::<soak::Chaosload>(ctx),
        ("chaos", false) => chaos::untraced(ctx),
        ("chaos", true) => chaos::traced(ctx),
        (w, _) => Err(format!("unknown workload {w} (mload, chaosload, chaos)")),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let report = match run(&args, &ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let inputs: Vec<String> = report
        .inputs
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    let samples: Vec<String> = report.samples.iter().map(Samples::json).collect();
    let gap = report.gap.as_deref().map_or("null".to_string(), string);
    let summary = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"inputs\": {{{}}}, \"samples\": {{{}}}, \"gap\": {gap}}}",
        string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_json(&ctx),
        inputs.join(", "),
        samples.join(", "),
    );
    if let Some(spans) = &report.spans {
        let dir = "perfbench/out";
        let path = format!("{dir}/{}-seed{}-trace.json", args.workload, args.seed);
        let body = format!(
            "{{\n\"summary\": {summary},\n\"metrics\": {},\n\"spans\": {}\n}}\n",
            report::metrics_json(&report.metrics),
            trace::spans_json(spans)
        );
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!("{summary}");
    let ops = &report.ops;
    println!(
        "{}",
        report::result_line(ops.correct(), ops.attempted, ops.failed, &report.metrics)
    );
    std::process::exit(if ops.correct() { 0 } else { 1 });
}
