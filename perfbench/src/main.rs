//! End-to-end benchmark of aircal's audit pipeline and campaign engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload audit_honest --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload in this process for `--seconds`, checks its outputs,
//! prints a human-readable table, and ends standard output with one JSON
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` beside this crate.

mod audit;
mod checks;
mod cli;
mod clock;
mod fleet;
mod heap;
mod report;
mod spans;
mod stats;

use checks::CheckError;
use cli::{Args, UsageError, Workload};
use clock::Elapsed;
use report::{ResultLine, END_TO_END, PER_LAYER};
use spans::SpanTree;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::PeakAlloc = heap::PeakAlloc::new();

/// Tail percentile of every op timing.
pub const TAIL_PERCENTILE: u32 = 80;

/// What a workload run measured.
pub struct Outcome {
    /// What one timed operation is ("round" or "campaign").
    pub op: &'static str,
    /// What `work_items` counts ("audits" or "sim events").
    pub work: &'static str,
    pub setup: Vec<Elapsed>,
    /// Untraced operations.
    pub ops: Vec<Elapsed>,
    /// Traced operations (traced runs only).
    pub traced_ops: Vec<Elapsed>,
    /// The whole measured loop.
    pub loop_time: Elapsed,
    /// Work done by the untraced operations.
    pub work_items: u64,
    /// Operations attempted (audits or campaigns).
    pub attempted: u64,
    /// Operations that did not yield a complete verdict (expected under
    /// injected faults) or failed their output check.
    pub unfinished: u64,
    /// Operations covered by a failed output check.
    pub failed: u64,
    pub errors: Vec<CheckError>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: SpanTree,
}

/// Traced op CPU median over untraced op CPU median, minus 1.
pub fn overhead(ops: &[Elapsed], traced: &[Elapsed]) -> f64 {
    let med = |v: &[Elapsed]| stats::median(&v.iter().map(|e| e.cpu_s).collect::<Vec<_>>());
    match (med(traced), med(ops)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    }
}

#[derive(Debug)]
enum BenchError {
    Usage(UsageError),
    /// Timings of an unoptimised build say nothing about the program.
    DebugBuild,
    TooFewSamples(stats::TooFewSamples),
    Output(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(e) => write!(f, "{e}\n{}", cli::USAGE),
            BenchError::DebugBuild => {
                write!(f, "refusing to measure a debug build; run with --release")
            }
            BenchError::TooFewSamples(e) => write!(f, "{e}"),
            BenchError::Output(e) => write!(f, "cannot write results: {e}"),
        }
    }
}

/// Facts about the build and host that change the numbers.
struct Fingerprint {
    dispatch: &'static str,
    nproc: usize,
    profile: &'static str,
    force_scalar: String,
}

impl Fingerprint {
    fn take() -> Self {
        Self {
            dispatch: aircal::dsp::dispatch_label(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            force_scalar: std::env::var("AIRCAL_FORCE_SCALAR").unwrap_or_else(|_| "unset".into()),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"dispatch\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \"force_scalar\": \"{}\"}}",
            self.dispatch,
            self.nproc,
            self.profile,
            self.force_scalar.escape_default()
        )
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(BenchError::Usage(UsageError::Help)) => {
            println!("{}{}", cli::USAGE, report::catalog_text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the workload; `Ok(correct)` once the result line is printed.
fn run() -> Result<bool, BenchError> {
    let args = cli::parse(std::env::args().skip(1)).map_err(BenchError::Usage)?;
    let fp = Fingerprint::take();
    if fp.profile == "debug" {
        return Err(BenchError::DebugBuild);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fp.json());
    let seconds = args.seconds as f64;
    let outcome = match args.workload {
        Workload::AuditHonest => audit::run(args.seed, false, seconds, args.trace),
        Workload::AuditHostile => audit::run(args.seed, true, seconds, args.trace),
        Workload::FleetCampaign => fleet::run(args.seed, seconds, args.trace),
    };
    report_check_failures(&outcome.errors);
    let metrics = if args.trace {
        println!(
            "traced run: failed_frac {:.6} of {} {}s (end-to-end figures come from --trace 0 runs)",
            outcome.unfinished as f64 / outcome.attempted.max(1) as f64,
            outcome.attempted,
            outcome.op
        );
        println!("{}", layer_table(&outcome.spans));
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
        for (name, value) in &outcome.layers {
            assert!(
                m.contains_key(name),
                "per-layer metric {name} is not in the catalog"
            );
            m.insert(name, *value);
        }
        m
    } else {
        let summary = Summary::of(&outcome)?;
        print!("{}", summary.table(&outcome));
        summary.end_to_end()
    };
    let line = ResultLine {
        correct: outcome.errors.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    };
    let json = line.to_json().map_err(BenchError::Output)?;
    write_files(&args, &fp, &outcome, &json).map_err(|e| BenchError::Output(e.to_string()))?;
    println!("{json}");
    Ok(line.correct)
}

/// Failed checks to standard error, where a caller that keeps only the
/// output's tail still sees why the run failed. A failing check repeats
/// every round, so only the first few are printed.
fn report_check_failures(errors: &[CheckError]) {
    const SHOWN: usize = 5;
    for e in errors.iter().take(SHOWN) {
        eprintln!("CHECK FAILED: {e}");
    }
    if errors.len() > SHOWN {
        eprintln!("CHECK FAILED: {} more", errors.len() - SHOWN);
    }
}

/// Everything the tables and the result line are computed from.
struct Summary {
    setup_cpu_s: f64,
    setup_wall_s: f64,
    work_per_cpu_s: f64,
    work_per_s: f64,
    /// Op samples, CPU and wall seconds.
    op_cpu: Vec<f64>,
    op_wall: Vec<f64>,
    /// The gated tail, checked to have enough samples beyond it.
    op_cpu_tail: f64,
    failed_frac: f64,
    peak_rss_mb: f64,
    peak_heap_mb: f64,
}

fn med(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

impl Summary {
    fn of(o: &Outcome) -> Result<Self, BenchError> {
        let setup_cpu: Vec<f64> = o.setup.iter().map(|e| e.cpu_s).collect();
        let setup_wall: Vec<f64> = o.setup.iter().map(|e| e.wall_s).collect();
        let op_cpu: Vec<f64> = o.ops.iter().map(|e| e.cpu_s).collect();
        let op_wall: Vec<f64> = o.ops.iter().map(|e| e.wall_s).collect();
        let op_cpu_tail =
            stats::tail(&op_cpu, TAIL_PERCENTILE).map_err(BenchError::TooFewSamples)?;
        Ok(Self {
            setup_cpu_s: med(&setup_cpu),
            setup_wall_s: med(&setup_wall),
            work_per_cpu_s: o.work_items as f64 / o.loop_time.cpu_s,
            work_per_s: o.work_items as f64 / o.loop_time.wall_s,
            op_cpu,
            op_wall,
            op_cpu_tail,
            failed_frac: o.unfinished as f64 / o.attempted.max(1) as f64,
            peak_rss_mb: clock::peak_rss_mb().unwrap_or(f64::NAN),
            peak_heap_mb: HEAP.peak_mb(),
        })
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let values = [
            ("setup_s", self.setup_cpu_s),
            ("throughput_per_cpu_s", self.work_per_cpu_s),
            ("op_cpu_s_p50", med(&self.op_cpu)),
            ("op_cpu_s_p80", self.op_cpu_tail),
            ("peak_heap_mb", self.peak_heap_mb),
        ];
        debug_assert_eq!(values.len(), END_TO_END.len());
        values.into_iter().collect()
    }

    /// The human-readable table, under the metric names of the
    /// workload's own vocabulary, in both clocks. p90 is shown where the
    /// run holds enough samples for it.
    fn table(&self, o: &Outcome) -> String {
        let (per_s, op) = match o.op {
            "round" => ("audits_per_s", "round_s"),
            _ => ("sim_events_per_s", "campaign_s"),
        };
        let mut t = aircal::obs::fmt::Table::new(&["metric", "value", "unit", "clock", "n"]);
        let n_ops = o.ops.len();
        let mut row = |name: &str, v: Option<f64>, unit: &str, clock: &str, n: usize| {
            let value = v.map_or("n/a (<10 beyond)".to_string(), |v| format!("{v:.6}"));
            t.row(&[name, &value, unit, clock, &n.to_string()]);
        };
        row("setup_s", Some(self.setup_cpu_s), "s", "cpu", o.setup.len());
        row(
            "setup_s",
            Some(self.setup_wall_s),
            "s",
            "wall",
            o.setup.len(),
        );
        let work = o.work_items as usize;
        row(per_s, Some(self.work_per_cpu_s), "1/s", "cpu", work);
        row(per_s, Some(self.work_per_s), "1/s", "wall", work);
        for (clock, samples) in [("cpu", &self.op_cpu), ("wall", &self.op_wall)] {
            row(&format!("{op}_p50"), Some(med(samples)), "s", clock, n_ops);
            for p in [TAIL_PERCENTILE, 90] {
                row(
                    &format!("{op}_p{p}"),
                    stats::tail(samples, p).ok(),
                    "s",
                    clock,
                    n_ops,
                );
            }
        }
        row(
            "failed_frac",
            Some(self.failed_frac),
            "ratio",
            "-",
            o.attempted as usize,
        );
        row("peak_rss_mb", Some(self.peak_rss_mb), "MiB", "-", 1);
        row("peak_heap_mb", Some(self.peak_heap_mb), "MiB", "-", 1);
        format!(
            "end-to-end (op = one {}, work = {})\n{}\n",
            o.op,
            o.work,
            t.render()
        )
    }
}

/// Per-span-name table of a traced run: count, CPU total and CPU
/// self-time (span minus its children).
fn layer_table(spans: &SpanTree) -> String {
    let mut t = aircal::obs::fmt::Table::new(&["span", "count", "cpu_s", "self_cpu_s", "wall_s"]);
    for (name, l) in spans.totals() {
        t.row(&[
            name.to_string(),
            l.count.to_string(),
            format!("{:.6}", l.cpu_s),
            format!("{:.6}", l.self_cpu_s),
            format!("{:.6}", l.wall_s),
        ]);
    }
    format!("span tree\n{}", t.render())
}

/// Write the run's record (fingerprint, checks, result line) and, for a
/// traced run, its span tree under `perfbench/out/`.
fn write_files(args: &Args, fp: &Fingerprint, o: &Outcome, json: &str) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let errors: Vec<String> = o
        .errors
        .iter()
        .map(|e| format!("\"{}\"", e.to_string().escape_default()))
        .collect();
    let mut f = std::fs::File::create(dir.join(format!("{stem}.json")))?;
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}, \"check_failures\": [{}], \"result\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        fp.json(),
        errors.join(", "),
        json
    )?;
    f.sync_all()?;
    if args.trace {
        let mut w = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.jsonl")),
        )?);
        o.spans.write_jsonl(&mut w)?;
        w.flush()?;
    }
    Ok(())
}
