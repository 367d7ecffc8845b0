//! Pipeline performance report: times the survey→profile hot path and
//! writes `BENCH_PIPELINE.json` at the repo root.
//!
//! ```sh
//! cargo run --release -p aircal-bench --bin perfreport \
//!     [-- --quick] [--seed N] [--threads N] [--check-allocs] [--check-perf] [--check-robust] [--check-scale] [--check-recovery]
//! ```
//!
//! Sections:
//!
//! * **kernels** — the runtime-selected DSP dispatch arm
//!   (`scalar`/`sse2`/`avx2`/`neon`) and per-kernel scalar-vs-dispatched
//!   throughput with a bit-identity cross-check. `--check-perf` enforces
//!   the simd-vs-scalar speedup floor when a vector ISA is dispatched;
//! * **adsb_decode** — decoder throughput over a rendered capture,
//!   Msamples/s;
//! * **preamble_scan** — power-gated preamble correlation vs the exact
//!   ungated scan (identical peaks, fewer FLOPs);
//! * **fir** — overlap-save [`FastFirFilter`] vs direct [`FirFilter`]
//!   at 63/255/1023 taps (the TV bandpass shapes);
//! * **survey / tv_sweep / calibrator** — wall clock at 1/2/4/8 worker
//!   threads, clamped to what the host actually has (bit-identical
//!   outputs; the knob trades time only). `--threads N` overrides the
//!   clamp, so a single-core CI box can still emit the full sweep;
//! * **geometry** — dense synthetic downtown: brute-force `path_profile`
//!   vs the spatial index vs the index + path memo, all three bit-compared.
//!   `--check-perf` enforces the speedup/hit-rate floors in
//!   `scripts/perf_budget.json` (non-zero exit on regression);
//! * **allocations** — steady-state allocator round-trips per burst on
//!   the survey, TV-channel, and cellular hot paths: each entry point
//!   with fresh scratch per call vs warm reused scratch, counted by a
//!   wrapping global allocator. `--check-allocs` enforces the
//!   budgets in `scripts/alloc_budget.json` (non-zero exit on regression);
//! * **stage_latency / span_summary** — one traced calibration run:
//!   per-stage latency histograms (fixed `aircal-obs` bucket bounds)
//!   and aggregated span wall times for the instrumented kernels;
//! * **robustness** — an adversarial audit campaign (6 honest nodes,
//!   one node per adversary kind, 8 rounds): per-adversary first-anomaly
//!   and eviction rounds plus aggregate detection rate, false-quarantine
//!   rate, and worst-case detection latency. `--check-robust` enforces
//!   the floors in `scripts/robustness_budget.json` (non-zero exit when
//!   an adversary survives or an honest node is quarantined);
//! * **scale** — the discrete-event campaign engine at 100/1000/5000
//!   nodes: events processed, wall clock, events/s, plus a cheap
//!   parallelism-invariance cross-check (the workers=2 digest must
//!   match the timed serial run). `--check-scale` enforces the
//!   throughput floor in `scripts/scale_budget.json`.
//!
//! All numbers are wall-clock on whatever host runs this; `host_cores`
//! records how much hardware parallelism was actually available.

use aircal::net::{spawn_node, AdversaryKind, Cloud, NodeAgent, NodeBehavior, NodeHealth, RetryPolicy};
use aircal_adsb::decoder::gated_preamble_correlation;
use aircal_adsb::{cpr, me::MePayload, AdsbFrame, DecodeScratch, Decoder, IcaoAddress};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_bench::{flag_value, parse_args, paper_traffic, AllocSnapshot, CountingAllocator};
use aircal_cellular::{paper_towers, CellScanner, CellScratch};
use aircal_core::engine::Calibrator;
use aircal_core::survey::{run_survey, SurveyConfig};
use aircal_dsp::corr::{find_peaks, normalized_correlation};
use aircal_dsp::fir::design_bandpass;
use aircal_dsp::window::Window;
use aircal_dsp::{derive_stream_seed, Cplx, DspScratch, FastFirFilter, FirFilter};
use aircal_env::scenarios::{dense_city, testbed_origin};
use aircal_env::{GeoScratch, PathCache, Scenario, ScenarioKind};
use std::sync::Arc;
use aircal_sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig};
use aircal_tv::{paper_tv_towers, TvPowerProbe, TvProbeConfig, TvScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[derive(Serialize)]
struct ThreadTiming {
    threads: usize,
    seconds: f64,
    speedup_vs_serial: f64,
}

/// A 1/2/4/8-thread wall-clock sweep plus an explicit record of the
/// clamp that shaped it: on a single-core host the 2/4/8 rows are
/// skipped, and without this annotation the one-row table is
/// indistinguishable from a scaling failure.
#[derive(Serialize)]
struct ThreadSweep {
    /// True when the clamp removed at least one requested thread count.
    clamped: bool,
    /// The effective cap (host cores, or the `--threads` override).
    thread_cap: usize,
    host_cores: usize,
    /// Requested thread counts the clamp skipped.
    skipped_threads: Vec<usize>,
    rows: Vec<ThreadTiming>,
}

#[derive(Serialize)]
struct FirTiming {
    taps: usize,
    input_len: usize,
    direct_seconds: f64,
    overlap_save_seconds: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct DecodeTiming {
    samples: usize,
    messages: usize,
    seconds: f64,
    msamples_per_s: f64,
}

#[derive(Serialize)]
struct CorrTiming {
    samples: usize,
    ungated_seconds: f64,
    gated_seconds: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct StageLatency {
    stage: String,
    histogram: aircal_obs::Histogram,
}

#[derive(Serialize)]
struct AllocStats {
    bursts: usize,
    allocs_per_burst: f64,
    bytes_per_burst: f64,
}

#[derive(Serialize)]
struct AllocComparison {
    path: &'static str,
    allocating: AllocStats,
    scratch: AllocStats,
    /// Allocating/scratch allocation ratio. When the scratch path made
    /// zero allocations this is the allocating per-burst count itself —
    /// a finite "at least ×N" lower bound instead of infinity.
    reduction: f64,
}

/// Per-path ceilings on `scratch.allocs_per_burst`, from
/// `scripts/alloc_budget.json`.
#[derive(Deserialize)]
struct AllocBudget {
    survey_burst: f64,
    tv_channel: f64,
    cellular_tower: f64,
}

/// Dense-world geometry acceleration: one obstruction sweep timed three
/// ways. All three must agree bit for bit — the index and memo are pure
/// accelerators, never approximations.
#[derive(Serialize)]
struct GeometryTiming {
    buildings: usize,
    rays: usize,
    index_build_seconds: f64,
    brute_seconds: f64,
    indexed_seconds: f64,
    cached_seconds: f64,
    indexed_speedup: f64,
    cached_speedup: f64,
    cache_hit_rate: f64,
    bit_identical: bool,
}

/// Floors on the geometry section, from `scripts/perf_budget.json`.
#[derive(Deserialize)]
struct PerfBudget {
    min_indexed_speedup: f64,
    min_cached_speedup: f64,
    min_cache_hit_rate: f64,
    require_bit_identical: bool,
    /// Floor on the simd-vs-scalar speedup a kernel must clear to count
    /// toward `min_kernels_at_speedup`.
    min_kernel_speedup: f64,
    /// How many kernels must clear the speedup floor when a vector ISA
    /// is dispatched. Ignored (with a note) when dispatch == "scalar".
    min_kernels_at_speedup: usize,
}

/// One DSP kernel timed on both reduction arms. `bit_identical` is the
/// checksum cross-check for this specific workload; the exhaustive proof
/// lives in the `simd_equivalence` proptest suite.
#[derive(Serialize)]
struct KernelTiming {
    kernel: &'static str,
    elements: usize,
    scalar_msamples_per_s: f64,
    dispatched_msamples_per_s: f64,
    speedup: f64,
    bit_identical: bool,
}

/// The `kernels` section: the runtime-selected dispatch arm
/// (`scalar`/`sse2`/`avx2`/`neon`) and per-kernel scalar-vs-dispatched
/// throughput on an L1-resident workload.
#[derive(Serialize)]
struct KernelsReport {
    dispatch: &'static str,
    kernels: Vec<KernelTiming>,
}

/// One adversary's trip down the quarantine ladder during the campaign.
#[derive(Serialize)]
struct AdversaryOutcome {
    kind: &'static str,
    node: &'static str,
    /// First round the consistency pass flagged this node (0-based).
    first_anomaly_round: Option<u64>,
    /// Round the ladder reached `Evicted` (0-based).
    eviction_round: Option<u64>,
    evicted: bool,
}

/// Detection quality of the robust-aggregation layer under a standing
/// f < n/2 adversarial fleet.
#[derive(Serialize)]
struct RobustnessReport {
    rounds: u64,
    honest_nodes: usize,
    adversary_nodes: usize,
    adversaries: Vec<AdversaryOutcome>,
    /// Fraction of adversaries evicted by the end of the campaign.
    detection_rate: f64,
    /// Honest nodes that ever reached Quarantined or worse.
    false_quarantine_count: usize,
    false_quarantine_rate: f64,
    /// Worst-case rounds-to-eviction (eviction round + 1; the full
    /// campaign length + 1 when an adversary survived).
    max_detection_latency_rounds: u64,
    campaign_seconds: f64,
}

/// Floors/ceilings on the robustness section, from
/// `scripts/robustness_budget.json`.
#[derive(Deserialize)]
struct RobustBudget {
    min_detection_rate: f64,
    max_false_quarantine_rate: f64,
    max_detection_latency_rounds: u64,
}

/// One fleet size through the discrete-event campaign engine. The timed
/// run is serial (workers=1) so the throughput number measures the
/// engine, not the host's core count; a second untimed run at workers=2
/// cross-checks the parallelism-invariance contract via the digest.
#[derive(Serialize)]
struct ScaleTiming {
    nodes: usize,
    events: u64,
    seconds: f64,
    events_per_sec: f64,
    coverage90_tick: Option<u64>,
    digest: String,
    parallel_digest_matches: bool,
}

/// Floors on the scale section, from `scripts/scale_budget.json`.
#[derive(Deserialize)]
struct ScaleBudget {
    min_events_per_sec: f64,
    require_parallel_invariant: bool,
}

/// The campaign engine at each paper-regime fleet size. Fault pressure
/// matches the fleet_sim suite (lossy 0.3 / drop 0.5) so the events/s
/// here reflect a chaotic fleet, not an idle one. All three sizes run
/// even under `--quick` — the 5000-node campaign is sub-second in
/// release, and the scale gate is only meaningful at scale.
fn scale_campaigns(seed: u64) -> Vec<ScaleTiming> {
    use aircal::sim::{run, CampaignConfig};
    [100usize, 1000, 5000]
        .iter()
        .map(|&nodes| {
            let mut cfg = CampaignConfig::paper_default(nodes, seed);
            cfg.faults.lossy_fraction = 0.3;
            cfg.faults.drop_probability = 0.5;
            cfg.workers = 1;
            let t0 = Instant::now();
            let result = run(&cfg);
            let seconds = t0.elapsed().as_secs_f64();
            cfg.workers = 2;
            let parallel = run(&cfg);
            ScaleTiming {
                nodes,
                events: result.events,
                seconds,
                events_per_sec: result.events as f64 / seconds,
                coverage90_tick: result.coverage90_tick,
                parallel_digest_matches: parallel.digest == result.digest,
                digest: result.digest,
            }
        })
        .collect()
}

/// Enforce `scripts/scale_budget.json`: every fleet size must clear the
/// events/s floor and (when required) the workers=2 digest must match
/// the serial run bit for bit.
fn check_scale_budget(scale: &[ScaleTiming]) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/scale_budget.json");
    let text = std::fs::read_to_string(path).expect("read scripts/scale_budget.json");
    let budget: ScaleBudget = serde_json::from_str(&text).expect("parse scale budget");
    let mut ok = true;
    for s in scale {
        if s.events_per_sec < budget.min_events_per_sec {
            eprintln!(
                "# SCALE BUDGET EXCEEDED: {} nodes at {:.0} events/s (floor {:.0})",
                s.nodes, s.events_per_sec, budget.min_events_per_sec
            );
            ok = false;
        } else {
            eprintln!(
                "# scale budget ok: {} nodes at {:.0} events/s (floor {:.0})",
                s.nodes, s.events_per_sec, budget.min_events_per_sec
            );
        }
        if budget.require_parallel_invariant && !s.parallel_digest_matches {
            eprintln!(
                "# SCALE BUDGET EXCEEDED: {} nodes workers=2 digest diverged from serial",
                s.nodes
            );
            ok = false;
        }
    }
    ok
}

/// Crash-recovery drill: a 1000-node campaign through the engine with
/// periodic cloud crashes, duplicate/reorder delivery faults, and a
/// fault-free twin to diff the final cloud digest against, plus a
/// journal-replay micro-benchmark (records/s through
/// [`aircal::core::wal::Journal::open`]) that prices the recovery path
/// itself.
#[derive(Serialize)]
struct RecoverySection {
    nodes: usize,
    crashes: u64,
    wal_appends: u64,
    wal_syncs: u64,
    replayed_records: u64,
    recovery_ticks: u64,
    deduped_reports: u64,
    duplicated_deliveries: u64,
    reordered_deliveries: u64,
    campaign_seconds: f64,
    /// Final cloud digest of the faulted campaign equals the fault-free
    /// twin's, bit for bit.
    bit_identical: bool,
    invariant_violations: usize,
    journal_replay_records: u64,
    journal_replay_seconds: f64,
    journal_replay_records_per_sec: f64,
}

/// Floors on the recovery section, from `scripts/recovery_budget.json`.
#[derive(Deserialize)]
struct RecoveryBudget {
    min_crashes: u64,
    require_bit_identical: bool,
    max_invariant_violations: u64,
    min_replay_records_per_sec: f64,
}

fn recovery_drill(seed: u64, reps: usize) -> RecoverySection {
    use aircal::core::wal::{Journal, WalRecord};
    use aircal::sim::{run, CampaignConfig};

    let nodes = 1000usize;
    let mut cfg = CampaignConfig::paper_default(nodes, seed);
    cfg.recovery.crash_ticks = (1..cfg.max_ticks / 120).map(|i| i * 120).collect();
    cfg.recovery.duplicate_fraction = 0.3;
    cfg.recovery.reorder_fraction = 0.3;
    let t0 = Instant::now();
    let faulted = run(&cfg);
    let campaign_seconds = t0.elapsed().as_secs_f64();
    let clean = run(&CampaignConfig::paper_default(nodes, seed));
    let bit_identical = faulted.state_digest == clean.state_digest
        && faulted.trust_table == clean.trust_table;

    // Journal replay micro-benchmark: a synced journal of dispatch +
    // report frames, reopened cold — the dominant cost of a real
    // recovery is exactly this scan.
    let replay_records = 200_000u64;
    let mut journal = Journal::new(1 << 20);
    for i in 0..replay_records / 2 {
        journal.append(&WalRecord::Dispatch {
            node: i % nodes as u64,
            kind: (i % 3) as u8,
            seq: i,
            tick: i,
        });
        journal.append(&WalRecord::ReportApplied {
            node: i % nodes as u64,
            kind: (i % 3) as u8,
            seq: i,
            value_bits: (i as f64).to_bits(),
            tick: i + 1,
        });
    }
    journal.sync();
    let bytes = journal.to_bytes();
    let journal_replay_seconds = time_best(reps, || {
        let (j, report) = Journal::open(&bytes, 1 << 20);
        assert_eq!(report.recovered, replay_records);
        std::hint::black_box(j.len_bytes())
    });

    RecoverySection {
        nodes,
        crashes: faulted.recoveries,
        wal_appends: faulted.wal_appends,
        wal_syncs: faulted.wal_syncs,
        replayed_records: faulted.replayed_records,
        recovery_ticks: faulted.recovery_ticks,
        deduped_reports: faulted.deduped_reports,
        duplicated_deliveries: faulted.duplicated_deliveries,
        reordered_deliveries: faulted.reordered_deliveries,
        campaign_seconds,
        bit_identical,
        invariant_violations: faulted.invariant_violations.len(),
        journal_replay_records: replay_records,
        journal_replay_seconds,
        journal_replay_records_per_sec: replay_records as f64 / journal_replay_seconds,
    }
}

/// Enforce `scripts/recovery_budget.json`: the drill must actually
/// crash, recovery must be bit-identical with zero invariant
/// violations, and journal replay must clear its throughput floor.
fn check_recovery_budget(r: &RecoverySection) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/recovery_budget.json");
    let text = std::fs::read_to_string(path).expect("read scripts/recovery_budget.json");
    let budget: RecoveryBudget = serde_json::from_str(&text).expect("parse recovery budget");
    let mut ok = true;
    if r.crashes < budget.min_crashes {
        eprintln!(
            "# RECOVERY BUDGET EXCEEDED: only {} crashes (floor {})",
            r.crashes, budget.min_crashes
        );
        ok = false;
    }
    if budget.require_bit_identical && !r.bit_identical {
        eprintln!("# RECOVERY BUDGET EXCEEDED: faulted digest diverged from fault-free twin");
        ok = false;
    }
    if r.invariant_violations as u64 > budget.max_invariant_violations {
        eprintln!(
            "# RECOVERY BUDGET EXCEEDED: {} invariant violations (ceiling {})",
            r.invariant_violations, budget.max_invariant_violations
        );
        ok = false;
    }
    if r.journal_replay_records_per_sec < budget.min_replay_records_per_sec {
        eprintln!(
            "# RECOVERY BUDGET EXCEEDED: journal replay at {:.0} records/s (floor {:.0})",
            r.journal_replay_records_per_sec, budget.min_replay_records_per_sec
        );
        ok = false;
    }
    if ok {
        eprintln!(
            "# recovery budget ok: {} crashes, bit_identical={}, replay {:.0} records/s",
            r.crashes, r.bit_identical, r.journal_replay_records_per_sec
        );
    }
    ok
}

#[derive(Serialize)]
struct PipelineReport {
    quick: bool,
    host_cores: usize,
    /// `--threads N` cap used for the thread sweeps instead of
    /// `host_cores` (`null` when the host clamp applied).
    threads_override: Option<usize>,
    geometry: GeometryTiming,
    kernels: KernelsReport,
    adsb_decode: DecodeTiming,
    preamble_scan: CorrTiming,
    fir: Vec<FirTiming>,
    survey: ThreadSweep,
    tv_sweep: ThreadSweep,
    calibrator: ThreadSweep,
    allocations: Vec<AllocComparison>,
    stage_latency: Vec<StageLatency>,
    span_summary: Vec<aircal_obs::SpanSummary>,
    robustness: RobustnessReport,
    scale: Vec<ScaleTiming>,
    recovery: RecoverySection,
}

/// The same f < n/2 fleet the byzantine integration suite pins down: six
/// honest installations and one node per adversary kind, audited for
/// eight rounds with a fresh commission seed each round. Fully seeded,
/// so the outcome table is a regression surface, not a flaky benchmark.
/// `(node name, installation, Some((kind tag, adversary)))` campaign row.
type CampaignRow = (&'static str, ScenarioKind, Option<(&'static str, AdversaryKind)>);

fn robustness_campaign() -> RobustnessReport {
    const ROUNDS: u64 = 8;
    let fleet: [CampaignRow; 11] = [
        ("adv-frozen", ScenarioKind::Rooftop, Some(("frozen", AdversaryKind::FrozenFrontend))),
        ("adv-gain", ScenarioKind::OpenField, Some(("gain", AdversaryKind::GainInflate { db: 25.0 }))),
        (
            "adv-poison",
            ScenarioKind::OpenField,
            Some(("poison", AdversaryKind::CalibrationPoison { db_per_round: 2.5 })),
        ),
        ("adv-replay", ScenarioKind::Rooftop, Some(("replay", AdversaryKind::ReplayStale))),
        ("adv-spoof", ScenarioKind::OpenField, Some(("spoof", AdversaryKind::SpoofAdsb { ghosts: 24 }))),
        ("h-canyon", ScenarioKind::UrbanCanyon, None),
        ("h-field-a", ScenarioKind::OpenField, None),
        ("h-field-b", ScenarioKind::OpenField, None),
        ("h-roof-a", ScenarioKind::Rooftop, None),
        ("h-roof-b", ScenarioKind::Rooftop, None),
        ("h-window", ScenarioKind::BehindWindow, None),
    ];
    let sky = Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(testbed_origin())
        },
        4242,
    ));
    let mut cloud = Cloud::new(sky.clone());
    cloud.retry_policy = RetryPolicy::quick();
    for (i, (name, kind, adv)) in fleet.iter().enumerate() {
        let scenario = Scenario::build(*kind);
        let mut agent = match adv {
            Some((_, kind)) => {
                NodeAgent::with_adversary(scenario, sky.clone(), *kind, 0xBAD5_EED0 + i as u64)
            }
            None => NodeAgent::new(scenario, NodeBehavior::Honest, sky.clone()),
        };
        agent.claims.name = name.to_string();
        cloud
            .register(spawn_node(agent, 0.0, 7000 + i as u64))
            .expect("campaign registration");
    }

    let mut first_anomaly: Vec<Option<u64>> = vec![None; fleet.len()];
    let mut evicted_at: Vec<Option<u64>> = vec![None; fleet.len()];
    let mut false_quarantined: Vec<bool> = vec![false; fleet.len()];
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        // Fresh commission seed per round: replayed or frozen reports
        // only become evidence under a seed the node has not seen.
        cloud.audit_all(2000 + round);
        let health = cloud.health_report();
        let anomalies = cloud.anomaly_report();
        for (i, (name, _, adv)) in fleet.iter().enumerate() {
            let h = health
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, h, _)| *h)
                .expect("registered node reports health");
            let run = anomalies
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, run, _)| *run)
                .unwrap_or(0);
            if run > 0 && first_anomaly[i].is_none() {
                first_anomaly[i] = Some(round);
            }
            if matches!(h, NodeHealth::Evicted) && evicted_at[i].is_none() {
                evicted_at[i] = Some(round);
            }
            if adv.is_none() && matches!(h, NodeHealth::Quarantined | NodeHealth::Evicted) {
                false_quarantined[i] = true;
            }
        }
    }
    let campaign_seconds = t0.elapsed().as_secs_f64();
    cloud.shutdown();

    let adversaries: Vec<AdversaryOutcome> = fleet
        .iter()
        .enumerate()
        .filter_map(|(i, (name, _, adv))| {
            adv.map(|(kind, _)| AdversaryOutcome {
                kind,
                node: name,
                first_anomaly_round: first_anomaly[i],
                eviction_round: evicted_at[i],
                evicted: evicted_at[i].is_some(),
            })
        })
        .collect();
    let honest_nodes = fleet.iter().filter(|(_, _, adv)| adv.is_none()).count();
    let adversary_nodes = adversaries.len();
    let detection_rate =
        adversaries.iter().filter(|a| a.evicted).count() as f64 / adversary_nodes.max(1) as f64;
    let false_quarantine_count = false_quarantined.iter().filter(|&&q| q).count();
    let max_detection_latency_rounds = adversaries
        .iter()
        .map(|a| a.eviction_round.map_or(ROUNDS + 1, |r| r + 1))
        .max()
        .unwrap_or(0);
    RobustnessReport {
        rounds: ROUNDS,
        honest_nodes,
        adversary_nodes,
        adversaries,
        detection_rate,
        false_quarantine_count,
        false_quarantine_rate: false_quarantine_count as f64 / honest_nodes.max(1) as f64,
        max_detection_latency_rounds,
        campaign_seconds,
    }
}

/// Enforce `scripts/robustness_budget.json`: every adversary must be
/// evicted within the latency ceiling and no honest node quarantined.
fn check_robust_budget(r: &RobustnessReport) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/robustness_budget.json");
    let text = std::fs::read_to_string(path).expect("read scripts/robustness_budget.json");
    let budget: RobustBudget = serde_json::from_str(&text).expect("parse robustness budget");
    let mut ok = true;
    if r.detection_rate < budget.min_detection_rate {
        eprintln!(
            "# ROBUSTNESS BUDGET EXCEEDED: detection_rate at {:.2} (floor {:.2})",
            r.detection_rate, budget.min_detection_rate
        );
        ok = false;
    } else {
        eprintln!(
            "# robustness budget ok: detection_rate at {:.2} (floor {:.2})",
            r.detection_rate, budget.min_detection_rate
        );
    }
    if r.false_quarantine_rate > budget.max_false_quarantine_rate {
        eprintln!(
            "# ROBUSTNESS BUDGET EXCEEDED: false_quarantine_rate at {:.2} (ceiling {:.2})",
            r.false_quarantine_rate, budget.max_false_quarantine_rate
        );
        ok = false;
    } else {
        eprintln!(
            "# robustness budget ok: false_quarantine_rate at {:.2} (ceiling {:.2})",
            r.false_quarantine_rate, budget.max_false_quarantine_rate
        );
    }
    if r.max_detection_latency_rounds > budget.max_detection_latency_rounds {
        eprintln!(
            "# ROBUSTNESS BUDGET EXCEEDED: max_detection_latency_rounds at {} (ceiling {})",
            r.max_detection_latency_rounds, budget.max_detection_latency_rounds
        );
        ok = false;
    } else {
        eprintln!(
            "# robustness budget ok: max_detection_latency_rounds at {} (ceiling {})",
            r.max_detection_latency_rounds, budget.max_detection_latency_rounds
        );
    }
    ok
}

/// One fully observed calibration run: stage timers feed fixed-bucket
/// histograms, the global tracer records kernel spans. Runs after all
/// timed sections so tracing overhead cannot touch their numbers.
fn traced_calibration(quick: bool, s: &Scenario, seed: u64) -> (Vec<StageLatency>, Vec<aircal_obs::SpanSummary>) {
    let obs = aircal_obs::Obs::recording();
    aircal_obs::trace::enable();
    let cal = if quick { Calibrator::quick() } else { Calibrator::default() }
        .with_obs(obs.clone());
    std::hint::black_box(cal.calibrate(&s.world, &s.site, seed));
    aircal_obs::trace::disable();
    let spans = aircal_obs::trace::drain();
    let stage_latency = obs
        .snapshot()
        .histograms
        .into_iter()
        .map(|(stage, histogram)| StageLatency { stage, histogram })
        .collect();
    (stage_latency, aircal_obs::trace::summarize(&spans))
}

/// Time one kernel on both arms. The closures return a bit checksum of
/// the kernel's result so the optimizer cannot elide the call and the
/// two arms can be cross-checked.
fn bench_kernel(
    reps: usize,
    inner: usize,
    elements: usize,
    kernel: &'static str,
    mut scalar_call: impl FnMut() -> u64,
    mut dispatched_call: impl FnMut() -> u64,
) -> KernelTiming {
    let bit_identical = scalar_call() == dispatched_call();
    let scalar_seconds = time_best(reps, || {
        let mut acc = 0u64;
        for _ in 0..inner {
            acc ^= scalar_call();
        }
        acc
    });
    let dispatched_seconds = time_best(reps, || {
        let mut acc = 0u64;
        for _ in 0..inner {
            acc ^= dispatched_call();
        }
        acc
    });
    let work = (elements * inner) as f64;
    KernelTiming {
        kernel,
        elements,
        scalar_msamples_per_s: work / scalar_seconds / 1e6,
        dispatched_msamples_per_s: work / dispatched_seconds / 1e6,
        speedup: scalar_seconds / dispatched_seconds,
        bit_identical,
    }
}

/// Throughput of the deterministic-lane kernels on an L1-resident 4096-
/// element workload, scalar arm vs the runtime-detected arm. Both arms
/// share the canonical 8-lane reduction order, so the dispatched column
/// is the same math issued wider — any checksum divergence is a bug.
fn kernel_timings(reps: usize) -> KernelsReport {
    use aircal_dsp::simd::Kernels;
    const N: usize = 4096;
    let xs: Vec<f64> = (0..N).map(|i| (0.73 * i as f64).sin()).collect();
    let za: Vec<Cplx> = (0..N).map(|i| Cplx::phasor(0.37 * i as f64)).collect();
    let zb: Vec<Cplx> = (0..N).map(|i| Cplx::phasor(0.11 * i as f64 + 0.5)).collect();
    let taps: Vec<f64> = (0..N).map(|i| 0.5 - 0.5 * (0.002 * i as f64).cos()).collect();
    let scalar = Kernels::scalar();
    // The env-aware dispatch table, so the dispatched column always
    // describes the arm this process actually runs (an
    // `AIRCAL_FORCE_SCALAR=1` run reports scalar-vs-scalar, ~1.0x).
    let detected = aircal_dsp::kernels();
    let inner = 1000;
    let cplx_bits = |z: Cplx| z.re.to_bits() ^ z.im.to_bits().rotate_left(1);

    let mut kernels = vec![
        bench_kernel(
            reps,
            inner,
            N,
            "sum_f64",
            || (scalar.sum_f64)(&xs).to_bits(),
            || (detected.sum_f64)(&xs).to_bits(),
        ),
        bench_kernel(
            reps,
            inner,
            N,
            "energy",
            || (scalar.energy)(&za).to_bits(),
            || (detected.energy)(&za).to_bits(),
        ),
        bench_kernel(
            reps,
            inner,
            N,
            "cdot",
            || cplx_bits((scalar.cdot)(&za, &zb)),
            || cplx_bits((detected.cdot)(&za, &zb)),
        ),
        bench_kernel(
            reps,
            inner,
            N,
            "cdot_conj",
            || cplx_bits((scalar.cdot_conj)(&za, &zb)),
            || cplx_bits((detected.cdot_conj)(&za, &zb)),
        ),
    ];
    let mut mags_s = vec![0.0f64; N];
    let mut mags_d = vec![0.0f64; N];
    kernels.push(bench_kernel(
        reps,
        inner,
        N,
        "norm_sq_map",
        || {
            (scalar.norm_sq_map)(&za, &mut mags_s);
            mags_s[0].to_bits() ^ mags_s[N - 1].to_bits().rotate_left(1)
        },
        || {
            (detected.norm_sq_map)(&za, &mut mags_d);
            mags_d[0].to_bits() ^ mags_d[N - 1].to_bits().rotate_left(1)
        },
    ));
    let mut win_s = vec![Cplx::ZERO; N];
    let mut win_d = vec![Cplx::ZERO; N];
    kernels.push(bench_kernel(
        reps,
        inner,
        N,
        "scale_map",
        || {
            (scalar.scale_map)(&za, &taps, &mut win_s);
            cplx_bits(win_s[0]) ^ cplx_bits(win_s[N - 1]).rotate_left(7)
        },
        || {
            (detected.scale_map)(&za, &taps, &mut win_d);
            cplx_bits(win_d[0]) ^ cplx_bits(win_d[N - 1]).rotate_left(7)
        },
    ));
    KernelsReport {
        dispatch: aircal_dsp::dispatch_label(),
        kernels,
    }
}

/// Best-of-`reps` wall clock, seconds.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Time `run` at 1/2/4/8 worker threads, skipping counts beyond `cap` —
/// an oversubscribed row measures scheduler noise, not scaling. The cap
/// defaults to the host's core count; `--threads N` raises (or lowers)
/// it explicitly. The serial row always survives the clamp, and the
/// skipped counts are recorded so a one-row table on a one-core host
/// reads as a clamp, not as missing data.
fn thread_sweep(
    reps: usize,
    host_cores: usize,
    cap: usize,
    mut run: impl FnMut(usize),
) -> ThreadSweep {
    let mut rows: Vec<ThreadTiming> = Vec::new();
    let mut skipped_threads: Vec<usize> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > cap.max(1) {
            skipped_threads.push(threads);
            continue;
        }
        let seconds = time_best(reps, || run(threads));
        let serial = rows.first().map(|t| t.seconds).unwrap_or(seconds);
        rows.push(ThreadTiming {
            threads,
            seconds,
            speedup_vs_serial: serial / seconds,
        });
    }
    ThreadSweep {
        clamped: !skipped_threads.is_empty(),
        thread_cap: cap.max(1),
        host_cores,
        skipped_threads,
        rows,
    }
}

/// Run `f` once to warm pools/plans, then `rounds` more times with the
/// allocator counters bracketed around them.
fn measure_allocs(bursts_per_round: usize, rounds: usize, mut f: impl FnMut()) -> AllocStats {
    f();
    let before = AllocSnapshot::now();
    for _ in 0..rounds.max(1) {
        f();
    }
    let delta = AllocSnapshot::now() - before;
    let bursts = bursts_per_round * rounds.max(1);
    AllocStats {
        bursts,
        allocs_per_burst: delta.allocs as f64 / bursts.max(1) as f64,
        bytes_per_burst: delta.bytes as f64 / bursts.max(1) as f64,
    }
}

fn alloc_reduction(allocating: &AllocStats, scratch: &AllocStats) -> f64 {
    if scratch.allocs_per_burst == 0.0 {
        allocating.allocs_per_burst
    } else {
        allocating.allocs_per_burst / scratch.allocs_per_burst
    }
}

/// Steady-state ADS-B burst loop: render one cluster, scan it, recycle
/// the window buffer. The allocating baseline calls `render_seeded` and
/// `scan_with` with fresh scratch per window; the scratch path must hit
/// zero.
fn survey_burst_allocs(seed: u64) -> AllocComparison {
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let renderer = CaptureRenderer::new(fe.clone());
    let floor = fe.noise_floor_dbm();
    let plans: Vec<BurstPlan> = (0..32)
        .map(|i| {
            let frame = AdsbFrame::new(
                IcaoAddress::new(0xA00000 + (i as u32 % 16)),
                MePayload::AirbornePosition {
                    altitude_ft: 30_000.0,
                    cpr: cpr::encode(37.9, -122.2, cpr::CprFormat::Even),
                },
            );
            BurstPlan {
                start_s: i as f64 * 2e-3,
                waveform: aircal_adsb::ppm::modulate(&frame.encode(), 1.0, 0.0),
                rx_power_dbm: floor + 8.0 + (i % 10) as f64,
                phase0: i as f64 * 0.37,
            }
        })
        .collect();
    let clusters = renderer.cluster_plans(&plans);
    let decoder = Decoder::default();

    let allocating = measure_allocs(clusters.len(), 4, || {
        let windows = renderer.render_seeded(&plans, seed, 1);
        let msgs: usize = windows
            .iter()
            .map(|w| {
                let mut msgs = Vec::new();
                decoder.scan_with(&w.samples, w.start_s, &mut DecodeScratch::default(), &mut msgs);
                msgs.len()
            })
            .sum();
        std::hint::black_box(msgs);
    });

    let mut scratch = DspScratch::new();
    let mut dscratch = DecodeScratch::default();
    let mut msgs = Vec::new();
    let scratch_stats = measure_allocs(clusters.len(), 4, || {
        let mut total = 0usize;
        for (ci, cluster) in clusters.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, ci as u64));
            let w = renderer.render_cluster_with(&plans, cluster, &mut rng, &mut scratch);
            decoder.scan_with(&w.samples, w.start_s, &mut dscratch, &mut msgs);
            total += msgs.len();
            w.recycle(&mut scratch);
        }
        std::hint::black_box(total);
    });

    AllocComparison {
        path: "survey_burst",
        reduction: alloc_reduction(&allocating, &scratch_stats),
        allocating,
        scratch: scratch_stats,
    }
}

/// Steady-state TV channel loop: the allocating baseline profiles each
/// path by brute force, re-synthesizes the 8VSB reference and rebuilds
/// the band-power meter per channel; the scratch path resolves its paths
/// through a warm geometry accelerator, shares one waveform and resets
/// one warm meter. The result `station: String` keeps the scratch path
/// at ~1 alloc per channel.
fn tv_channel_allocs(seed: u64) -> AllocComparison {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let towers = paper_tv_towers(&s.world.origin);
    let probe = TvPowerProbe::new(TvProbeConfig {
        parallelism: 1,
        ..TvProbeConfig::default()
    });

    let allocating = measure_allocs(towers.len(), 2, || {
        let acc: f64 = towers
            .iter()
            .map(|t| {
                let path = s.world.path_profile(&s.site, &t.position, t.channel.center_hz());
                let waveform = probe.reference_waveform();
                probe
                    .measure_with_path(&path, &s.site, t, seed, &waveform, &mut TvScratch::default())
                    .power_dbfs
            })
            .sum();
        std::hint::black_box(acc);
    });

    let waveform = probe.reference_waveform();
    let mut accel = s.world.accel();
    let mut scratch = TvScratch::default();
    let scratch_stats = measure_allocs(towers.len(), 2, || {
        let acc: f64 = towers
            .iter()
            .map(|t| {
                let path = accel.profile(&s.world, &s.site, &t.position, t.channel.center_hz());
                probe
                    .measure_with_path(&path, &s.site, t, seed, &waveform, &mut scratch)
                    .power_dbfs
            })
            .sum();
        std::hint::black_box(acc);
    });

    AllocComparison {
        path: "tv_channel",
        reduction: alloc_reduction(&allocating, &scratch_stats),
        allocating,
        scratch: scratch_stats,
    }
}

/// Steady-state cellular sweep: `scan_with` rewrites warm measurement
/// slots (name strings included) through a warm geometry accelerator,
/// so the steady state performs zero allocations per tower.
fn cellular_tower_allocs(seed: u64) -> AllocComparison {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let db = paper_towers(&s.world.origin);
    let scanner = CellScanner::default();
    let n = db.all().len();

    let allocating = measure_allocs(n, 8, || {
        std::hint::black_box(scanner.scan(&s.world, &s.site, &db, seed).len());
    });

    let mut accel = s.world.accel();
    let mut scratch = CellScratch::default();
    let mut out = Vec::new();
    let scratch_stats = measure_allocs(n, 8, || {
        scanner.scan_with(&s.world, &mut accel, &s.site, &db, seed, &mut scratch, &mut out);
        std::hint::black_box(out.len());
    });

    AllocComparison {
        path: "cellular_tower",
        reduction: alloc_reduction(&allocating, &scratch_stats),
        allocating,
        scratch: scratch_stats,
    }
}

/// Time one dense-world obstruction sweep three ways: brute force over
/// every building, through the spatial index, and through index + path
/// memo (warmed, so the timed passes are pure lookups). The three output
/// vectors are compared bit for bit.
fn geometry_timings(quick: bool, reps: usize) -> GeometryTiming {
    let dense = dense_city(if quick { 10 } else { 16 });
    let rays = if quick { 120 } else { 240 };
    let (freq, elev, range) = (1.09e9, 2.0, 50_000.0);

    let t0 = Instant::now();
    let index = dense.world.index();
    let index_build_seconds = t0.elapsed().as_secs_f64();

    let brute = dense
        .world
        .obstruction_profile(&dense.site, freq, elev, range, rays);
    let brute_seconds = time_best(reps, || {
        dense
            .world
            .obstruction_profile(&dense.site, freq, elev, range, rays)
            .len()
    });

    let mut scratch = GeoScratch::new();
    let mut out = Vec::new();
    let indexed_seconds = time_best(reps, || {
        dense.world.obstruction_profile_with(
            &index, None, &dense.site, freq, elev, range, rays, &mut scratch, &mut out,
        );
        out.len()
    });
    let indexed = out.clone();

    let mut cache = PathCache::new();
    dense.world.obstruction_profile_with(
        &index,
        Some(&mut cache),
        &dense.site,
        freq,
        elev,
        range,
        rays,
        &mut scratch,
        &mut out,
    );
    let _ = cache.take_delta(); // warm pass: don't let its misses dilute the rate
    let cached_seconds = time_best(reps, || {
        dense.world.obstruction_profile_with(
            &index,
            Some(&mut cache),
            &dense.site,
            freq,
            elev,
            range,
            rays,
            &mut scratch,
            &mut out,
        );
        out.len()
    });
    let cached = out.clone();
    let (hits, misses) = cache.take_delta();

    let same_bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    GeometryTiming {
        buildings: dense.world.buildings.len(),
        rays,
        index_build_seconds,
        brute_seconds,
        indexed_seconds,
        cached_seconds,
        indexed_speedup: brute_seconds / indexed_seconds,
        cached_speedup: brute_seconds / cached_seconds,
        cache_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        bit_identical: same_bits(&brute, &indexed) && same_bits(&brute, &cached),
    }
}

/// Enforce `scripts/perf_budget.json`: the geometry accelerators must
/// keep their speedup/hit-rate floors and stay bit-identical to brute
/// force, and — when a vector ISA is dispatched — enough DSP kernels
/// must clear the simd-vs-scalar speedup floor.
fn check_perf_budget(g: &GeometryTiming, k: &KernelsReport) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/perf_budget.json");
    let text = std::fs::read_to_string(path).expect("read scripts/perf_budget.json");
    let budget: PerfBudget = serde_json::from_str(&text).expect("parse perf budget");
    let mut ok = true;
    let mut gate = |name: &str, value: f64, floor: f64| {
        if value < floor {
            eprintln!("# PERF BUDGET EXCEEDED: {name} at {value:.2} (floor {floor:.2})");
            ok = false;
        } else {
            eprintln!("# perf budget ok: {name} at {value:.2} (floor {floor:.2})");
        }
    };
    gate("geometry.indexed_speedup", g.indexed_speedup, budget.min_indexed_speedup);
    gate("geometry.cached_speedup", g.cached_speedup, budget.min_cached_speedup);
    gate("geometry.cache_hit_rate", g.cache_hit_rate, budget.min_cache_hit_rate);
    if budget.require_bit_identical && !g.bit_identical {
        eprintln!("# PERF BUDGET EXCEEDED: geometry outputs not bit-identical to brute force");
        ok = false;
    }
    if budget.require_bit_identical {
        for t in &k.kernels {
            if !t.bit_identical {
                eprintln!(
                    "# PERF BUDGET EXCEEDED: kernel {} diverged from the scalar arm",
                    t.kernel
                );
                ok = false;
            }
        }
    }
    if k.dispatch == "scalar" {
        eprintln!(
            "# perf budget note: dispatch is scalar (no vector ISA or AIRCAL_FORCE_SCALAR); \
             kernel speedup floor not applicable"
        );
    } else {
        let fast = k
            .kernels
            .iter()
            .filter(|t| t.bit_identical && t.speedup >= budget.min_kernel_speedup)
            .count();
        if fast < budget.min_kernels_at_speedup {
            eprintln!(
                "# PERF BUDGET EXCEEDED: only {fast} kernels at >= {:.2}x on {} (need {})",
                budget.min_kernel_speedup, k.dispatch, budget.min_kernels_at_speedup
            );
            ok = false;
        } else {
            eprintln!(
                "# perf budget ok: {fast} kernels at >= {:.2}x on {} (need {})",
                budget.min_kernel_speedup, k.dispatch, budget.min_kernels_at_speedup
            );
        }
    }
    ok
}

/// Enforce `scripts/alloc_budget.json`: every scratch path must stay at
/// or under its checked-in allocs-per-burst ceiling.
fn check_alloc_budget(allocations: &[AllocComparison]) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/alloc_budget.json");
    let text = std::fs::read_to_string(path).expect("read scripts/alloc_budget.json");
    let budget: AllocBudget = serde_json::from_str(&text).expect("parse alloc budget");
    let mut ok = true;
    for a in allocations {
        let limit = match a.path {
            "survey_burst" => budget.survey_burst,
            "tv_channel" => budget.tv_channel,
            "cellular_tower" => budget.cellular_tower,
            other => panic!("no budget entry for path {other}"),
        };
        if a.scratch.allocs_per_burst > limit {
            eprintln!(
                "# ALLOC BUDGET EXCEEDED: {} at {:.2} allocs/burst (budget {:.2})",
                a.path, a.scratch.allocs_per_burst, limit
            );
            ok = false;
        } else {
            eprintln!(
                "# alloc budget ok: {} at {:.2} allocs/burst (budget {:.2})",
                a.path, a.scratch.allocs_per_burst, limit
            );
        }
    }
    ok
}

fn decode_capture(seed: u64, frames: usize) -> (Vec<aircal_sdr::RenderedWindow>, usize) {
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let renderer = CaptureRenderer::new(fe.clone());
    let floor = fe.noise_floor_dbm();
    let plans: Vec<BurstPlan> = (0..frames)
        .map(|i| {
            let frame = AdsbFrame::new(
                IcaoAddress::new(0xA00000 + (i as u32 % 64)),
                MePayload::AirbornePosition {
                    altitude_ft: 30_000.0,
                    cpr: cpr::encode(37.9, -122.2, cpr::CprFormat::Even),
                },
            );
            BurstPlan {
                start_s: i as f64 * 2e-3,
                waveform: aircal_adsb::ppm::modulate(&frame.encode(), 1.0, 0.0),
                rx_power_dbm: floor + 6.0 + (i % 12) as f64,
                phase0: i as f64 * 0.37,
            }
        })
        .collect();
    let windows = renderer.render_seeded(&plans, seed, 0);
    let samples = windows.iter().map(|w| w.samples.len()).sum();
    (windows, samples)
}

fn main() {
    let (positional, seed) = parse_args(
        "perfreport [--quick] [--seed N] [--threads N] [--check-allocs] [--check-perf] \
         [--check-robust] [--check-scale] [--check-recovery]",
        &[
            "--quick",
            "--check-allocs",
            "--check-perf",
            "--check-robust",
            "--check-scale",
            "--check-recovery",
        ],
        &["--threads"],
    );
    let quick = positional.iter().any(|a| a == "--quick");
    let check_allocs = positional.iter().any(|a| a == "--check-allocs");
    let check_perf = positional.iter().any(|a| a == "--check-perf");
    let check_robust = positional.iter().any(|a| a == "--check-robust");
    let check_scale = positional.iter().any(|a| a == "--check-scale");
    let check_recovery = positional.iter().any(|a| a == "--check-recovery");
    let threads_override = flag_value(&positional, "--threads").map(|v| v as usize);
    let reps = if quick { 1 } else { 3 };
    let host_cores = aircal_dsp::resolve_parallelism(0);
    let thread_cap = threads_override.unwrap_or(host_cores).max(1);
    eprintln!(
        "# perfreport: quick={quick} seed={seed} host_cores={host_cores} thread_cap={thread_cap}"
    );

    // --- DSP kernel dispatch (scalar vs vector arm) -----------------------
    let kernels = kernel_timings(reps);
    eprintln!("# kernels: dispatch={}", kernels.dispatch);
    for t in &kernels.kernels {
        eprintln!(
            "# kernel {}: {:.0} -> {:.0} Msamples/s ({:.2}x, bits {})",
            t.kernel,
            t.scalar_msamples_per_s,
            t.dispatched_msamples_per_s,
            t.speedup,
            if t.bit_identical { "identical" } else { "DIVERGED" }
        );
    }

    // --- ADS-B decode throughput -----------------------------------------
    let (windows, samples) = decode_capture(seed, if quick { 200 } else { 1_000 });
    let decoder = Decoder::default();
    let (mut dscratch, mut msgs) = (DecodeScratch::default(), Vec::new());
    let mut decode_all = || {
        windows
            .iter()
            .map(|w| {
                decoder.scan_with(&w.samples, w.start_s, &mut dscratch, &mut msgs);
                msgs.len()
            })
            .sum::<usize>()
    };
    let messages = decode_all();
    let seconds = time_best(reps, decode_all);
    let adsb_decode = DecodeTiming {
        samples,
        messages,
        seconds,
        msamples_per_s: samples as f64 / seconds / 1e6,
    };
    eprintln!(
        "# adsb_decode: {:.1} Msamples/s ({} msgs from {} samples)",
        adsb_decode.msamples_per_s, messages, samples
    );

    // --- Gated vs ungated preamble scan ----------------------------------
    let flat: Vec<Cplx> = windows.iter().flat_map(|w| w.samples.iter().copied()).collect();
    let threshold = aircal_adsb::DecoderConfig::default().preamble_threshold;
    let template = aircal_adsb::ppm::preamble_template();
    let ungated_seconds = time_best(reps, || {
        let corr = normalized_correlation(&flat, &template);
        find_peaks(&corr, threshold, 64).len()
    });
    let gated_seconds = time_best(reps, || {
        let corr = gated_preamble_correlation(&flat, threshold);
        find_peaks(&corr, threshold, 64).len()
    });
    let preamble_scan = CorrTiming {
        samples: flat.len(),
        ungated_seconds,
        gated_seconds,
        speedup: ungated_seconds / gated_seconds,
    };
    eprintln!("# preamble_scan: gate speedup {:.2}x", preamble_scan.speedup);

    // --- Overlap-save FIR vs direct --------------------------------------
    let input_len = if quick { 40_000 } else { 200_000 };
    let x: Vec<Cplx> = (0..input_len).map(|i| Cplx::phasor(0.123 * i as f64)).collect();
    let mut fir = Vec::new();
    for taps in [63usize, 255, 1023] {
        let h = design_bandpass(0.05, 0.25, taps, Window::Blackman).unwrap();
        let direct = FirFilter::new(h.clone()).unwrap();
        let fast = FastFirFilter::new(h).unwrap();
        let direct_seconds = time_best(reps, || {
            let mut f = direct.clone();
            f.process(&x)
        });
        let overlap_save_seconds = time_best(reps, || {
            let mut f = fast.clone();
            f.process(&x)
        });
        let t = FirTiming {
            taps,
            input_len,
            direct_seconds,
            overlap_save_seconds,
            speedup: direct_seconds / overlap_save_seconds,
        };
        eprintln!("# fir {taps} taps: overlap-save {:.2}x vs direct", t.speedup);
        fir.push(t);
    }

    // --- Survey wall-clock vs threads ------------------------------------
    let s = Scenario::build(ScenarioKind::Rooftop);
    let traffic = paper_traffic(&s, seed);
    let survey_cfg = if quick { SurveyConfig::quick() } else { SurveyConfig::default() };
    let index = s.world.index();
    let survey = thread_sweep(reps, host_cores, thread_cap, |threads| {
        let cfg = SurveyConfig {
            parallelism: threads,
            ..survey_cfg
        };
        std::hint::black_box(run_survey(&s.world, &index, &s.site, &traffic, &cfg, seed));
    });
    let widest = survey.rows.last().expect("sweep includes serial row");
    eprintln!(
        "# survey: {:.3}s serial, {:.2}x at {} threads{}",
        survey.rows[0].seconds,
        widest.speedup_vs_serial,
        widest.threads,
        if survey.clamped { " (clamped)" } else { "" }
    );

    // --- TV sweep vs threads ---------------------------------------------
    let towers = paper_tv_towers(&s.world.origin);
    let tv_sweep = thread_sweep(reps, host_cores, thread_cap, |threads| {
        let probe = TvPowerProbe::new(TvProbeConfig {
            parallelism: threads,
            ..TvProbeConfig::default()
        });
        std::hint::black_box(probe.sweep(&s.world, &s.site, &towers, seed));
    });
    eprintln!("# tv_sweep: {:.3}s serial", tv_sweep.rows[0].seconds);

    // --- Full calibrator vs threads --------------------------------------
    let calibrator = thread_sweep(if quick { 1 } else { 2 }, host_cores, thread_cap, |threads| {
        let cal = if quick { Calibrator::quick() } else { Calibrator::default() }
            .with_parallelism(threads);
        std::hint::black_box(cal.calibrate(&s.world, &s.site, seed));
    });
    eprintln!("# calibrator: {:.3}s serial", calibrator.rows[0].seconds);

    // --- Geometry acceleration (dense world) -----------------------------
    let geometry = geometry_timings(quick, reps);
    eprintln!(
        "# geometry: {} buildings, index {:.2}x, index+memo {:.2}x, hit rate {:.2}, bits {}",
        geometry.buildings,
        geometry.indexed_speedup,
        geometry.cached_speedup,
        geometry.cache_hit_rate,
        if geometry.bit_identical { "identical" } else { "DIVERGED" }
    );

    // --- Steady-state allocation accounting -------------------------------
    // Runs before the traced calibration so span recording (which does
    // allocate) cannot leak into the per-burst counts.
    let allocations = vec![
        survey_burst_allocs(seed),
        tv_channel_allocs(seed),
        cellular_tower_allocs(seed),
    ];
    for a in &allocations {
        eprintln!(
            "# allocs {}: {:.2}/burst allocating vs {:.2}/burst scratch ({:.0}x)",
            a.path, a.allocating.allocs_per_burst, a.scratch.allocs_per_burst, a.reduction
        );
    }

    // --- Per-stage latency histograms (traced run) ------------------------
    let (stage_latency, span_summary) = traced_calibration(quick, &s, seed);
    eprintln!(
        "# stage_latency: {} stages, {} distinct spans",
        stage_latency.len(),
        span_summary.len()
    );

    // --- Adversarial audit campaign ---------------------------------------
    let robustness = robustness_campaign();
    eprintln!(
        "# robustness: {}/{} adversaries evicted, {} false quarantines, worst latency {} rounds, {:.1}s",
        robustness.adversaries.iter().filter(|a| a.evicted).count(),
        robustness.adversary_nodes,
        robustness.false_quarantine_count,
        robustness.max_detection_latency_rounds,
        robustness.campaign_seconds
    );

    // --- Campaign engine at fleet scale -----------------------------------
    let scale = scale_campaigns(seed);
    for s in &scale {
        eprintln!(
            "# scale {} nodes: {} events in {:.3}s ({:.0} events/s), parallel digest {}",
            s.nodes,
            s.events,
            s.seconds,
            s.events_per_sec,
            if s.parallel_digest_matches { "matches" } else { "DIVERGED" }
        );
    }

    // --- Crash recovery drill ---------------------------------------------
    let recovery = recovery_drill(seed, reps);
    eprintln!(
        "# recovery: {} crashes over {} nodes, {} replayed records, bit_identical={}, replay {:.0} records/s",
        recovery.crashes,
        recovery.nodes,
        recovery.replayed_records,
        recovery.bit_identical,
        recovery.journal_replay_records_per_sec
    );

    let report = PipelineReport {
        quick,
        host_cores,
        threads_override,
        geometry,
        kernels,
        adsb_decode,
        preamble_scan,
        fir,
        survey,
        tv_sweep,
        calibrator,
        allocations,
        stage_latency,
        span_summary,
        robustness,
        scale,
        recovery,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PIPELINE.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_PIPELINE.json");
    println!("wrote {path}");

    // Budget checks run last so the report is on disk (and uploadable as
    // a CI artifact) even when a gate trips.
    let mut failed = false;
    if check_allocs && !check_alloc_budget(&report.allocations) {
        failed = true;
    }
    if check_perf && !check_perf_budget(&report.geometry, &report.kernels) {
        failed = true;
    }
    if check_robust && !check_robust_budget(&report.robustness) {
        failed = true;
    }
    if check_scale && !check_scale_budget(&report.scale) {
        failed = true;
    }
    if check_recovery && !check_recovery_budget(&report.recovery) {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
