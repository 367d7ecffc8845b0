//! Golden-vector regression tests: small known-good JSON fixtures that
//! the pipeline must reproduce **bit-exactly** from a fixed seed.
//!
//! The vendored `serde_json` shim prints floats with shortest-roundtrip
//! formatting and keeps object keys in declaration order, so equality on
//! the serialized string is equality on the values — any drift in the
//! DSP chain, decoder, or profiler shows up as a one-line diff here
//! before it shows up as a subtly wrong calibration in the field.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --test golden_vectors
//! ```
//!
//! and commit the updated `tests/fixtures/*.json` alongside the change.

use aircal::adsb::me::MePayload;
use aircal::adsb::{cpr, ppm, AdsbFrame, DecodeScratch, Decoder, IcaoAddress};
use aircal::core::freqprofile::FrequencyProfiler;
use aircal::env::{Scenario, ScenarioKind};
use aircal::sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig};
use aircal::tv::{paper_tv_towers, TvPowerProbe};
use std::path::PathBuf;

const SEED: u64 = 0xD00D;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `actual` against the committed fixture, byte for byte. With
/// `UPDATE_GOLDEN=1` the fixture is rewritten instead.
fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    if want != actual {
        let diverges = want
            .lines()
            .zip(actual.lines())
            .position(|(w, a)| w != a)
            .unwrap_or_else(|| want.lines().count().min(actual.lines().count()));
        panic!(
            "golden fixture {name} mismatch at line {}: expected {:?}, got {:?}\n\
             (intentional change? regenerate with UPDATE_GOLDEN=1 and commit)",
            diverges + 1,
            want.lines().nth(diverges).unwrap_or("<eof>"),
            actual.lines().nth(diverges).unwrap_or("<eof>"),
        );
    }
}

/// A deterministic rendered capture: 24 airborne-position bursts with
/// staggered power, phase, and ICAO address over a bladeRF front end.
fn rendered_capture() -> Vec<aircal::sdr::RenderedWindow> {
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let floor = fe.noise_floor_dbm();
    let plans: Vec<BurstPlan> = (0..24)
        .map(|i| {
            let frame = AdsbFrame::new(
                IcaoAddress::new(0xA00000 + (i as u32 % 8)),
                MePayload::AirbornePosition {
                    altitude_ft: 28_000.0 + 250.0 * i as f64,
                    cpr: cpr::encode(
                        37.8 + 0.01 * i as f64,
                        -122.4 + 0.02 * i as f64,
                        if i % 2 == 0 { cpr::CprFormat::Even } else { cpr::CprFormat::Odd },
                    ),
                },
            );
            BurstPlan {
                start_s: i as f64 * 2e-3,
                waveform: ppm::modulate(&frame.encode(), 1.0, 0.0),
                rx_power_dbm: floor + 16.0 + (i % 10) as f64,
                phase0: i as f64 * 0.41,
            }
        })
        .collect();
    CaptureRenderer::new(fe).render_seeded(&plans, SEED, 0)
}

/// The full RF→bits path: rendered IQ through the production decoder.
/// Every field of every decoded message — frame contents, sample index,
/// RSSI, bit confidence, repair count — must match the fixture exactly.
#[test]
fn golden_adsb_decode() {
    let decoder = Decoder::default();
    let (mut scratch, mut msgs) = (DecodeScratch::default(), Vec::new());
    let mut messages = Vec::new();
    for w in rendered_capture() {
        decoder.scan_with(&w.samples, w.start_s, &mut scratch, &mut msgs);
        messages.append(&mut msgs);
    }
    assert!(
        messages.len() >= 20,
        "capture should decode almost all 24 bursts, got {}",
        messages.len()
    );
    let json = serde_json::to_string_pretty(&messages).unwrap() + "\n";
    check_golden("adsb_decode.json", &json);
}

/// The TV probe's measured band powers over the paper's transmitter set:
/// the whole synthesis→channel→bandpass→power DSP chain in one vector.
#[test]
fn golden_tv_sweep() {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let towers = paper_tv_towers(&s.world.origin);
    let sweep = TvPowerProbe::default().sweep(&s.world, &s.site, &towers, SEED);
    let json = serde_json::to_string_pretty(&sweep).unwrap() + "\n";
    check_golden("tv_sweep.json", &json);
}

/// A seeded 1000-node campaign through the discrete-event engine: the
/// fixture pins the campaign digest (which folds every event-log line,
/// the final trust table, and every node's health state) plus the
/// headline counters. Any change to event ordering, fault semantics,
/// scheduling, payload synthesis, auditing, or trust arithmetic lands
/// here as a one-line diff. Worker count is deliberately ≥ 2: the
/// fixture also pins the engine's parallelism-invariance claim against
/// the digest a serial run produced when the fixture was generated.
#[test]
fn golden_fleet_campaign_digest() {
    use aircal::sim::{run, CampaignConfig};
    let mut cfg = CampaignConfig::paper_default(1000, SEED);
    cfg.workers = 2;
    cfg.faults.lossy_fraction = 0.3;
    cfg.faults.drop_probability = 0.5;
    let result = run(&cfg);
    let json = result.summary_json() + "\n";
    check_golden("fleet_campaign.json", &json);
}

/// One full cross-band frequency profile (cellular + TV sources) for the
/// rooftop scenario — the artifact the cloud judges nodes against.
#[test]
fn golden_frequency_profile() {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let cells = aircal::cellular::paper_towers(&s.world.origin);
    let tv = paper_tv_towers(&s.world.origin);
    let profile =
        FrequencyProfiler::default().profile(&s.world, &mut s.world.accel(), &s.site, &cells, &tv, SEED);
    let json = serde_json::to_string_pretty(&profile).unwrap() + "\n";
    check_golden("frequency_profile.json", &json);
}
