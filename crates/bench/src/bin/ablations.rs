//! Ablation experiments A1–A5 (see DESIGN.md §4).
//!
//! ```sh
//! cargo run --release -p aircal-bench --bin ablations [-- a1|…|a8] [--seed N]
//! ```
//!
//! * **A1** — FoV estimator comparison (histogram / KNN / SVM / logistic).
//! * **A2** — capture-duration sweep (how long must a survey run?).
//! * **A3** — ground-truth latency sensitivity (how stale may FR24 be?).
//! * **A4** — ADS-B decoder success vs SNR (the PHY threshold).
//! * **A5** — fault injection and trust scoring.
//! * **A6** — 5G NR extension including 28 GHz millimeter wave.
//! * **A7** — repetition stability and pooled estimation.
//! * **A8** — 1090 MHz channel congestion (squitter collisions).

use aircal_bench::{parse_args, paper_traffic};
use aircal_core::fov::{FovEstimator, FovMethod};
use aircal_core::survey::{run_survey, SurveyConfig};
use aircal_core::trust::{fabricate_survey, TrustAuditor};
use aircal_core::freqprofile::FrequencyProfiler;
use aircal_env::{all_scenarios, Scenario, ScenarioKind};
use aircal_sdr::FrontendFault;

fn main() {
    const USAGE: &str = "ablations [a1|a2|a3|a4|a5|a6|a7|a8|all] [--seed N]";
    let (positional, seed) = parse_args(USAGE, &[], &[]);
    let which = positional.first().map(|s| s.as_str()).unwrap_or("all");
    if !matches!(which, "a1" | "a2" | "a3" | "a4" | "a5" | "a6" | "a7" | "a8" | "all") {
        eprintln!("error: unknown ablation '{which}'\nusage: {USAGE}");
        std::process::exit(2);
    }
    if matches!(which, "a1" | "all") {
        a1_estimators(seed);
    }
    if matches!(which, "a2" | "all") {
        a2_duration(seed);
    }
    if matches!(which, "a3" | "all") {
        a3_latency(seed);
    }
    if matches!(which, "a4" | "all") {
        a4_decode_snr(seed);
    }
    if matches!(which, "a5" | "all") {
        a5_faults(seed);
    }
    if matches!(which, "a6" | "all") {
        a6_nr_mmwave(seed);
    }
    if matches!(which, "a7" | "all") {
        a7_repetition(seed);
    }
    if matches!(which, "a8" | "all") {
        a8_congestion(seed);
    }
}

/// A8: 1090 MHz channel congestion. Every aircraft shares one channel;
/// overlapping squitters garble each other (the renderer superimposes
/// them and the CRC rejects the mash). As the disc fills up, per-message
/// decode probability falls — the real-world "1090 FRUIT" problem, and a
/// limit on how much traffic actually helps a survey.
fn a8_congestion(seed: u64) {
    use aircal_aircraft::{TrafficConfig, TrafficSim, TransponderSchedule};

    println!("# A8 — 1090 MHz congestion: decode rate vs traffic density (open field, 10 s)");
    println!(
        "{:>10} {:>11} {:>9} {:>13} {:>12}",
        "aircraft", "on_air_msgs", "decoded", "decode_rate", "aircraft_obs"
    );
    let s = Scenario::build(ScenarioKind::OpenField);
    for count in [20usize, 50, 100, 200, 400] {
        let traffic = TrafficSim::generate(
            TrafficConfig {
                count,
                radius_m: 60_000.0, // keep every link SNR-viable: loss => collisions
                ..TrafficConfig::paper_default(s.site.position)
            },
            seed,
        );
        let cfg = SurveyConfig {
            duration_s: 10.0,
            query_time_s: 5.0,
            radius_m: 60_000.0,
            ..SurveyConfig::default()
        };
        let on_air = TransponderSchedule::default()
            .emissions(&traffic.flights, 0.0, cfg.duration_s, seed ^ 0x5EED)
            .len();
        let r = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &cfg, seed);
        println!(
            "{:>10} {:>11} {:>9} {:>12.1}% {:>11.0}%",
            count,
            on_air,
            r.total_messages,
            r.total_messages as f64 / on_air as f64 * 100.0,
            r.observation_rate() * 100.0,
        );
    }
    println!("# per-message decode rate falls with density (collisions), but per-aircraft");
    println!("# observation stays high: any one of dozens of squitters suffices — the");
    println!("# paper's binary matching is inherently congestion-tolerant.\n");
}

/// A6: extending the frequency-response technique to 5G NR, including
/// millimeter wave ("5G also supports millimeter-wave bands from 24 to
/// 48 GHz") — FR2 is measurable only with a clear line of sight.
fn a6_nr_mmwave(seed: u64) {
    use aircal_cellular::{nr_extension_cells, CellScanner};
    use aircal_env::paper_scenarios;
    println!("# A6 — 5G NR extension (RSRP dBm; ---- = no sync)");
    let scanner = CellScanner::default();
    let scenarios = paper_scenarios();
    let cells = nr_extension_cells(&scenarios[0].world.origin);
    print!("{:16}", "location");
    for c in &cells {
        print!(" {:>16}", format!("{} ({:.1}G)", c.name, c.dl_freq_hz() / 1e9));
    }
    println!();
    for s in &scenarios {
        let cells = nr_extension_cells(&s.world.origin);
        print!("{:16}", s.site.name);
        for m in scanner.scan_nr(&s.world, &s.site, &cells, seed) {
            match m.rsrp_dbm {
                Some(v) => print!(" {v:>16.1}"),
                None => print!(" {:>16}", "----"),
            }
        }
        println!();
    }
    println!("# 28 GHz survives only on the rooftop: at mmWave, *any* obstruction is fatal,");
    println!("# so an FR2 measurement is itself a line-of-sight detector.\n");
}

/// A7: the paper's repetition methodology — "repeated these experiments
/// over 10 times … obtaining similar results".
fn a7_repetition(seed: u64) {
    use aircal_core::repeat::run_repeated;
    println!("# A7 — estimate stability over repeated surveys (5 runs, fresh traffic each)");
    println!(
        "{:16} {:>14} {:>12} {:>12}",
        "location", "pairwise_IoU", "pooled_IoU", "obs_rate"
    );
    for s in aircal_env::paper_scenarios() {
        let rep = run_repeated(&s.world, &s.site, &SurveyConfig::default(), 70, 5, seed);
        let stab = rep.stability(&FovEstimator::default());
        let pooled_iou = if s.expected_fov.width_deg == 0.0 {
            1.0 - stab.pooled.open_fraction()
        } else {
            stab.pooled.iou(&s.expected_fov)
        };
        println!(
            "{:16} {:>14.2} {:>12.2} {:>11.0}%",
            s.site.name,
            stab.mean_pairwise_iou,
            pooled_iou,
            rep.overall_observation_rate() * 100.0
        );
    }
    println!();
}

/// A1: estimator quality (IoU vs scenario ground truth, 3 seeds averaged).
/// The (scenario × seed) surveys are independent, so they fan out over
/// worker threads and only the estimator scoring runs per row.
fn a1_estimators(seed: u64) {
    println!("# A1 — FoV estimator comparison (IoU vs ground truth, mean of 3 seeds)");
    let methods = [
        FovMethod::default_histogram(),
        FovMethod::default_knn(),
        FovMethod::default_svm(),
        FovMethod::default_logistic(),
    ];
    print!("{:16}", "scenario");
    for m in &methods {
        print!(" {:>18}", m.name());
    }
    println!();
    let scenarios = all_scenarios();
    let jobs: Vec<(usize, u64)> = (0..scenarios.len())
        .flat_map(|si| (0..3u64).map(move |k| (si, seed + k)))
        .collect();
    let threads = aircal_dsp::resolve_parallelism(0);
    let surveys = aircal_dsp::par_map(&jobs, threads, |_, &(si, s)| {
        survey_with(&scenarios[si], SurveyConfig::default(), s)
    });
    for (si, s) in scenarios.iter().enumerate() {
        print!("{:16}", s.site.name);
        for m in &methods {
            let iou_sum: f64 = jobs
                .iter()
                .zip(&surveys)
                .filter(|((ji, _), _)| *ji == si)
                .map(|(_, r)| {
                    let est = FovEstimator::new(*m).estimate(&r.points);
                    if s.expected_fov.width_deg == 0.0 {
                        // No true FoV: score = 1 − open fraction (reward
                        // calling the sky closed).
                        1.0 - est.open_fraction()
                    } else {
                        est.iou(&s.expected_fov)
                    }
                })
                .sum();
            print!(" {:>18.2}", iou_sum / 3.0);
        }
        println!();
    }
    println!();
}

/// A2: capture duration sweep on the rooftop scenario.
fn a2_duration(seed: u64) {
    println!("# A2 — capture duration vs FoV quality (rooftop)");
    println!("{:>12} {:>10} {:>10} {:>8}", "duration_s", "observed", "messages", "IoU");
    let s = Scenario::build(ScenarioKind::Rooftop);
    for duration in [5.0, 10.0, 20.0, 30.0, 60.0, 120.0] {
        let cfg = SurveyConfig {
            duration_s: duration,
            query_time_s: duration / 2.0,
            ..SurveyConfig::default()
        };
        let r = survey_with(&s, cfg, seed);
        let est = FovEstimator::default().estimate(&r.points);
        println!(
            "{:>12.0} {:>10} {:>10} {:>8.2}",
            duration,
            r.points.iter().filter(|p| p.observed).count(),
            r.total_messages,
            est.iou(&s.expected_fov),
        );
    }
    println!("# ~flat: 5 s already samples every squittering aircraft at ≥2 Hz, and the");
    println!("# single mid-capture ground-truth snapshot grows stale as the window lengthens,");
    println!("# offsetting the extra messages — the paper's 30 s buys margin, not accuracy.\n");
}

/// A3: ground-truth latency sensitivity (rooftop).
fn a3_latency(seed: u64) {
    println!("# A3 — ground-truth (FlightRadar24) latency sensitivity (rooftop)");
    println!("{:>11} {:>9} {:>11} {:>8}", "latency_s", "matched", "unmatched", "IoU");
    let s = Scenario::build(ScenarioKind::Rooftop);
    for latency in [0.0, 5.0, 10.0, 30.0, 60.0] {
        let cfg = SurveyConfig {
            ground_truth_latency_s: latency,
            ..SurveyConfig::default()
        };
        let r = survey_with(&s, cfg, seed);
        let est = FovEstimator::default().estimate(&r.points);
        println!(
            "{:>11.0} {:>9} {:>11} {:>8.2}",
            latency,
            r.points.iter().filter(|p| p.observed).count(),
            r.unmatched_messages,
            est.iou(&s.expected_fov),
        );
    }
    println!("# the paper's 10 s latency (≤2.5 km position error) barely moves the estimate;");
    println!("# a minute of staleness starts mislabeling aircraft near the disc edge.\n");
}

/// A4: decoder success vs SNR — the PHY threshold behind every figure.
fn a4_decode_snr(seed: u64) {
    use aircal_adsb::{cpr, me::MePayload, AdsbFrame, DecodeScratch, Decoder, IcaoAddress};
    use aircal_dsp::derive_stream_seed;
    use aircal_sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig};

    println!("# A4 — ADS-B decode probability vs SNR (100 frames per point)");
    println!("{:>8} {:>10}", "snr_db", "p_decode");
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let renderer = CaptureRenderer::new(fe.clone());
    let decoder = Decoder::default();
    let frame = AdsbFrame::new(
        IcaoAddress::new(0xABCDEF),
        MePayload::AirbornePosition {
            altitude_ft: 35_000.0,
            cpr: cpr::encode(37.9, -122.3, cpr::CprFormat::Even),
        },
    );
    let waveform = aircal_adsb::ppm::modulate(&frame.encode(), 1.0, 0.0);
    let floor = fe.noise_floor_dbm();
    // Each SNR point has its own RNG, so the points fan out over workers
    // and print in order afterwards — same numbers as the serial loop.
    let snrs = [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0];
    let threads = aircal_dsp::resolve_parallelism(0);
    let rates = aircal_dsp::par_map(&snrs, threads, |_, &snr| {
        let point_seed = seed ^ (snr * 10.0) as u64;
        let (mut scratch, mut msgs) = (DecodeScratch::default(), Vec::new());
        let mut ok = 0;
        for i in 0..100 {
            let plans = [BurstPlan {
                start_s: 0.0,
                waveform: waveform.clone(),
                rx_power_dbm: floor + snr,
                phase0: i as f64 * 0.37,
            }];
            let windows = renderer.render_seeded(&plans, derive_stream_seed(point_seed, i), 1);
            if windows.iter().any(|w| {
                decoder.scan_with(&w.samples, w.start_s, &mut scratch, &mut msgs);
                !msgs.is_empty()
            }) {
                ok += 1;
            }
        }
        ok as f64 / 100.0
    });
    for (snr, rate) in snrs.iter().zip(&rates) {
        println!("{snr:>8.1} {rate:>10.2}");
    }
    println!("# everything upstream (95 km open-sector reach, ~20 km through-wall reach)");
    println!("# follows from where this curve crosses ~50%.\n");
}

/// A5: fault injection and what the auditor reports.
fn a5_faults(seed: u64) {
    println!("# A5 — fault injection vs trust score (open-field site)");
    let s = Scenario::build(ScenarioKind::OpenField);
    let traffic = paper_traffic(&s, seed);
    let cells = aircal_cellular::paper_towers(&s.world.origin);
    let tv = aircal_tv::paper_tv_towers(&s.world.origin);
    let index = s.world.index();
    let mut accel = s.world.accel();

    println!(
        "{:22} {:>9} {:>9} {:>7}  flags",
        "condition", "observed", "bands", "trust"
    );
    let conditions: [(&str, FrontendFault); 5] = [
        ("healthy", FrontendFault::None),
        ("cable loss 8 dB", FrontendFault::CableLoss { db: 8.0 }),
        ("cable loss 25 dB", FrontendFault::CableLoss { db: 25.0 }),
        (
            "deaf above 900 MHz",
            FrontendFault::DeafAbove {
                cutoff_hz: 900e6,
                loss_db: 65.0,
            },
        ),
        ("dead", FrontendFault::Dead),
    ];
    for (label, fault) in conditions {
        let cfg = SurveyConfig {
            fault,
            ..SurveyConfig::default()
        };
        let r = run_survey(&s.world, &index, &s.site, &traffic, &cfg, seed);
        let mut profiler = FrequencyProfiler::default();
        profiler.scanner.config.fault = fault;
        profiler.tv_probe.config.fault = fault;
        let profile = profiler.profile(&s.world, &mut accel, &s.site, &cells, &tv, seed);
        let est = FovEstimator::default().estimate(&r.points);
        let trust = TrustAuditor::default().audit(&r, &profile, &traffic, est.open_fraction());
        println!(
            "{:22} {:>8.0}% {:>8.0}% {:>7.0}  {}",
            label,
            r.observation_rate() * 100.0,
            profile.usable_fraction() * 100.0,
            trust.score,
            if trust.flags.is_empty() { "-".into() } else { trust.flags.join("; ") }
        );
    }
    // Fabrication.
    let honest = run_survey(&s.world, &index, &s.site, &traffic, &SurveyConfig::default(), seed);
    let profile = FrequencyProfiler::default().profile(&s.world, &mut accel, &s.site, &cells, &tv, seed);
    let fake = fabricate_survey(&honest, honest.total_messages / 12);
    let est = FovEstimator::default().estimate(&fake.points);
    let trust = TrustAuditor::default().audit(&fake, &profile, &traffic, est.open_fraction());
    println!(
        "{:22} {:>8.0}% {:>8.0}% {:>7.0}  {}",
        "fabricated data",
        fake.observation_rate() * 100.0,
        profile.usable_fraction() * 100.0,
        trust.score,
        trust.flags.join("; ")
    );
    println!();
}

fn survey_with(
    s: &Scenario,
    cfg: SurveyConfig,
    seed: u64,
) -> aircal_core::survey::SurveyResult {
    let traffic = paper_traffic(s, seed);
    run_survey(&s.world, &s.world.index(), &s.site, &traffic, &cfg, seed)
}
