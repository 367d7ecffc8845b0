//! The directional survey: §3.1's procedure, end to end.
//!
//! "We run the dump1090 program on the sensor node for 30 seconds … 15
//! seconds into the measurement, we retrieve all flight data from
//! FlightRadar24 in a radius of 100 km … At the end of the measurement, we
//! go through all flights reported by FlightRadar24 and compare their
//! unique ICAO aircraft address with the messages we decoded. If the
//! flight is found, we mark it as an observed airplane."
//!
//! The pipeline below is that procedure against the simulated world:
//! transponder schedule → per-burst link budget (slow shadowing per
//! aircraft, fast Rician fading per message) → burst-mode IQ rendering →
//! the dump1090-style decoder → ICAO matching against the stale ground
//! truth.

use aircal_adsb::cpr::{self, CprPair};
use aircal_adsb::me::MePayload;
use aircal_adsb::{DecodeScratch, DecodedMessage, Decoder, IcaoAddress, ADSB_FREQ_HZ};
use aircal_aircraft::{GroundTruthService, TrafficSim, TransponderSchedule};
use aircal_env::{GeoScratch, SensorSite, World, WorldIndex};
use aircal_geo::LatLon;
use aircal_rfprop::fading::RicianFading;
use aircal_rfprop::LinkBudget;
use aircal_dsp::{derive_stream_seed, par_map_with, resolve_parallelism};
use aircal_sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig, FrontendFault};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Survey configuration (defaults follow the paper's procedure).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurveyConfig {
    /// Capture duration, seconds (paper: 30).
    pub duration_s: f64,
    /// When during the capture to query the ground truth (paper: 15).
    pub query_time_s: f64,
    /// Ground-truth query radius, meters (paper: 100 km).
    pub radius_m: f64,
    /// Ground-truth service latency, seconds (paper: 10 for FlightRadar24).
    pub ground_truth_latency_s: f64,
    /// Bursts whose SNR falls below this are not rendered (they cannot
    /// pass CRC; skipping them keeps the survey cheap). Set very low to
    /// force full rendering.
    pub skip_below_snr_db: f64,
    /// Worker threads for the burst pipeline (link budgets, IQ
    /// rendering, decoding). `0` means all available cores. Results are
    /// bit-identical for every value — the knob trades wall-clock only.
    pub parallelism: usize,
    /// Front-end fault to inject at the sensor, if any.
    pub fault: FrontendFault,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        Self {
            duration_s: 30.0,
            query_time_s: 15.0,
            radius_m: 100_000.0,
            ground_truth_latency_s: 10.0,
            skip_below_snr_db: 0.0,
            parallelism: 0,
            fault: FrontendFault::None,
        }
    }
}

impl SurveyConfig {
    /// A shorter capture for fast tests (10 s, query at 5 s).
    pub fn quick() -> Self {
        Self {
            duration_s: 10.0,
            query_time_s: 5.0,
            ..Self::default()
        }
    }
}

/// One ground-truth aircraft with its reception outcome — one dot in the
/// paper's Figure 1 (blue if `observed`, gray otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyPoint {
    /// Aircraft address.
    pub icao: IcaoAddress,
    /// Callsign from the ground truth.
    pub callsign: String,
    /// Bearing from the sensor, degrees.
    pub bearing_deg: f64,
    /// Ground range from the sensor, meters.
    pub range_m: f64,
    /// Altitude, meters.
    pub altitude_m: f64,
    /// Was at least one message from this aircraft decoded?
    pub observed: bool,
    /// How many messages were decoded.
    pub messages: usize,
    /// Mean RSSI of decoded messages, dBFS.
    pub mean_rssi_dbfs: Option<f64>,
}

/// The outcome of one directional survey.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyResult {
    /// One point per ground-truth aircraft.
    pub points: Vec<SurveyPoint>,
    /// Total messages decoded (all types).
    pub total_messages: usize,
    /// Messages decoded from aircraft *not* in the ground truth (either
    /// beyond the query radius or — when auditing — fabricated).
    pub unmatched_messages: usize,
    /// Scheduled bursts dropped by the `skip_below_snr_db` gate before
    /// rendering (they could never pass CRC; this records how much work
    /// the gate saved and how much of the sky was out of reach).
    pub skipped_low_snr: usize,
    /// Aircraft positions recovered by global CPR decode, sorted by ICAO.
    pub decoded_positions: Vec<(IcaoAddress, LatLon)>,
    /// The configuration used.
    pub config: SurveyConfig,
}

impl SurveyResult {
    /// Fraction of ground-truth aircraft observed.
    pub fn observation_rate(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.observed).count() as f64 / self.points.len() as f64
    }

    /// The farthest observed aircraft's range, meters (0 if none).
    pub fn max_observed_range_m(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.observed)
            .map(|p| p.range_m)
            .fold(0.0, f64::max)
    }
}

/// Run the §3.1 survey procedure. `index` is the spatial index of
/// `world` (`world.index()`); long-lived hosts (network nodes, the
/// calibration engine) build it once and reuse it across surveys.
pub fn run_survey(
    world: &World,
    index: &WorldIndex,
    site: &SensorSite,
    traffic: &TrafficSim,
    config: &SurveyConfig,
    seed: u64,
) -> SurveyResult {
    let _span = aircal_obs::span!("survey");
    let threads = resolve_parallelism(config.parallelism);

    // 1. The sky transmits. (Aircraft slightly beyond the query radius
    //    still emit — the receiver doesn't know the radius.)
    let candidates: Vec<_> = traffic
        .within(&site.position, config.radius_m * 1.3, config.duration_s / 2.0)
        .into_iter()
        .cloned()
        .collect();
    let emissions = TransponderSchedule::default().emissions(
        &candidates,
        0.0,
        config.duration_s,
        seed ^ 0x5EED,
    );

    // 2. Channel + front end per burst.
    let mut fe_cfg = FrontendConfig::bladerf_xa9(ADSB_FREQ_HZ, aircal_adsb::SAMPLE_RATE_HZ);
    fe_cfg.noise_figure_db = site.noise_figure_db;
    fe_cfg.fault = config.fault;
    let frontend = Frontend::new(fe_cfg);
    let renderer = CaptureRenderer::new(frontend.clone());

    // Slow shadowing: one standard-normal draw per aircraft, scaled by the
    // per-path σ (shadowing is an environment property, static over 30 s).
    // The draw is a pure function of (seed, ICAO), so it can be computed
    // up front and shared read-only by the burst workers.
    let mut shadow_draws: HashMap<IcaoAddress, f64> = HashMap::new();
    for e in &emissions {
        shadow_draws.entry(e.frame.icao()).or_insert_with(|| {
            let mut srng =
                ChaCha8Rng::seed_from_u64(seed ^ ((e.frame.icao().value() as u64) << 16));
            let u1: f64 = srng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = srng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
        });
    }

    // Per-burst link budget + fast fading, fanned out across workers.
    // Each burst derives its own RNG stream from (seed, burst index), so
    // the fade and carrier-phase draws never depend on scheduling order
    // and the result is bit-identical for every thread count.
    let plan_span = aircal_obs::span!("burst_planning");
    // Per-worker geometry scratch: the spatial index prunes the building
    // scan per burst, and each worker's buffers stay warm across its
    // share of the emissions.
    let mut geo_scratches: Vec<GeoScratch> =
        (0..threads.max(1)).map(|_| GeoScratch::new()).collect();
    let (mut plan_slots, mut planned) = (Vec::new(), Vec::new());
    par_map_with(
        &emissions,
        threads,
        &mut geo_scratches,
        &mut plan_slots,
        &mut planned,
        |i, e, geo| {
        let path = world.path_profile_indexed(index, site, &e.position, ADSB_FREQ_HZ, geo);
        let bearing = site.position.bearing_deg(&e.position);
        let elevation = site.position.elevation_deg(&e.position);
        let rx_gain = site.antenna.gain_dbi(bearing, elevation);
        let budget = LinkBudget::new(e.tx_power_dbm, 0.0, rx_gain);

        let mut shadow_std = shadow_draws[&e.frame.icao()];
        // Shadowing behind a deterministic obstruction is asymmetric: the
        // wall is definitely there, so clutter can add loss freely but can
        // "refund" at most ~1σ (a reflection path around the blocker).
        if path.is_obstructed() && path.diffraction_db + path.penetration_db >= 15.0 {
            shadow_std = shadow_std.max(-1.0);
        }
        let mut brng =
            ChaCha8Rng::seed_from_u64(derive_stream_seed(seed ^ 0xFADE, i as u64));
        let fade = RicianFading::from_k_db(path.k_factor_db).sample_power_gain(&mut brng);
        let rx_dbm = budget.median_rx_dbm(&path) - shadow_std * path.shadowing_sigma_db
            + 10.0 * fade.max(1e-12).log10();

        if frontend.snr_db(rx_dbm) < config.skip_below_snr_db {
            return None;
        }
        Some(BurstPlan {
            start_s: e.time_s,
            waveform: aircal_adsb::ppm::modulate_bytes(&e.frame.encode_bytes(), 1.0, 0.0),
            rx_power_dbm: rx_dbm,
            phase0: brng.gen_range(0.0..core::f64::consts::TAU),
        })
        },
    );
    drop(plan_span);
    let skipped_low_snr = planned.iter().filter(|p| p.is_none()).count();
    let plans: Vec<BurstPlan> = planned.into_iter().flatten().collect();

    // 3. Render and decode, dump1090-style. Rendering derives one noise
    //    stream per cluster; decoding fans out per window; the merge is
    //    in window (time) order, exactly as a serial pass would produce.
    let windows = renderer.render_seeded(&plans, seed ^ 0xC0DE, threads);
    let decode_span = aircal_obs::span!("decode_windows");
    let decoder = Decoder::default();
    // Per-worker decode scratch: each worker's correlation/demod buffers
    // warm up once and are reused across every window it scans.
    let mut decode_scratches: Vec<(DecodeScratch, Vec<DecodedMessage>)> =
        (0..threads.max(1)).map(|_| Default::default()).collect();
    let (mut slots, mut per_window) = (Vec::new(), Vec::new());
    par_map_with(
        &windows,
        threads,
        &mut decode_scratches,
        &mut slots,
        &mut per_window,
        |_, w, (scratch, msgs)| {
            decoder.scan_with(&w.samples, w.start_s, scratch, msgs);
            std::mem::take(msgs)
        },
    );
    let decoded: Vec<DecodedMessage> = per_window.into_iter().flatten().collect();
    drop(decode_span);

    // 4. Ground truth at the mid-capture query time.
    let gts = GroundTruthService::new(config.ground_truth_latency_s);
    let truth = gts.query(traffic, &site.position, config.radius_m, config.query_time_s);

    // 5. Match decoded ICAOs against the ground truth.
    let mut per_icao: HashMap<IcaoAddress, Vec<&DecodedMessage>> = HashMap::new();
    for m in &decoded {
        per_icao.entry(m.frame.icao()).or_default().push(m);
    }
    let truth_set: HashSet<IcaoAddress> = truth.iter().map(|a| a.icao).collect();
    let unmatched_messages = decoded
        .iter()
        .filter(|m| !truth_set.contains(&m.frame.icao()))
        .count();

    let points = truth
        .iter()
        .map(|a| {
            let msgs = per_icao.get(&a.icao).map(|v| v.as_slice()).unwrap_or(&[]);
            let mean_rssi = if msgs.is_empty() {
                None
            } else {
                Some(msgs.iter().map(|m| m.rssi_dbfs).sum::<f64>() / msgs.len() as f64)
            };
            SurveyPoint {
                icao: a.icao,
                callsign: a.callsign.clone(),
                bearing_deg: site.position.bearing_deg(&a.position),
                range_m: site.position.distance_m(&a.position),
                altitude_m: a.position.alt_m,
                observed: !msgs.is_empty(),
                messages: msgs.len(),
                mean_rssi_dbfs: mean_rssi,
            }
        })
        .collect();

    // 6. Recover positions via global CPR (even/odd pairs), as dump1090
    //    would display them.
    let decoded_positions = decode_positions(&decoded, &site.position);

    SurveyResult {
        points,
        total_messages: decoded.len(),
        unmatched_messages,
        skipped_low_snr,
        decoded_positions,
        config: *config,
    }
}

/// Pair consecutive even/odd airborne-position messages per aircraft and
/// decode globally; the reference position is only used as a sanity bound.
fn decode_positions(
    decoded: &[DecodedMessage],
    sensor: &LatLon,
) -> Vec<(IcaoAddress, LatLon)> {
    let _span = aircal_obs::span!("cpr_decode");
    let mut latest: HashMap<IcaoAddress, (Option<cpr::CprPosition>, Option<cpr::CprPosition>, f64)> =
        HashMap::new();
    let mut out: HashMap<IcaoAddress, LatLon> = HashMap::new();
    let mut msgs: Vec<&DecodedMessage> = decoded.iter().collect();
    msgs.sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap());
    for m in msgs {
        let Some(MePayload::AirbornePosition { altitude_ft, cpr }) = m.frame.payload() else {
            continue;
        };
        let entry = latest.entry(m.frame.icao()).or_insert((None, None, 0.0));
        match cpr.format {
            cpr::CprFormat::Even => entry.0 = Some(*cpr),
            cpr::CprFormat::Odd => entry.1 = Some(*cpr),
        }
        entry.2 = m.time_s;
        if let (Some(even), Some(odd)) = (entry.0, entry.1) {
            let pair = CprPair {
                even,
                odd,
                latest: cpr.format,
            };
            if let Ok((lat, lon)) = cpr::decode_global(&pair) {
                let pos = LatLon::new(lat, lon, aircal_adsb::altitude::ft_to_m(*altitude_ft));
                // Discard absurd decodes (zone-straddling artifacts).
                if sensor.distance_m(&pos) < 500_000.0 {
                    out.insert(m.frame.icao(), pos);
                }
            }
        }
    }
    let mut positions: Vec<(IcaoAddress, LatLon)> = out.into_iter().collect();
    positions.sort_by_key(|(icao, _)| *icao);
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_aircraft::TrafficConfig;
    use aircal_env::{Scenario, ScenarioKind};
    use aircal_geo::Sector;

    fn traffic_for(s: &Scenario, count: usize, seed: u64) -> TrafficSim {
        TrafficSim::generate(
            TrafficConfig {
                count,
                ..TrafficConfig::paper_default(s.site.position)
            },
            seed,
        )
    }

    #[test]
    fn open_field_observes_most_aircraft() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let traffic = traffic_for(&s, 40, 1);
        let r = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &SurveyConfig::quick(), 1);
        assert!(
            r.observation_rate() > 0.8,
            "open field observed only {:.0}%",
            r.observation_rate() * 100.0
        );
        assert!(r.max_observed_range_m() > 70_000.0);
        assert!(r.total_messages > 100);
    }

    #[test]
    fn rooftop_sees_far_west_short_east() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        let traffic = traffic_for(&s, 80, 12);
        let r = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &SurveyConfig::quick(), 12);
        let west = Sector::centered(270.0, 120.0);
        let far_west_observed = r
            .points
            .iter()
            .filter(|p| west.contains(p.bearing_deg) && p.range_m > 50_000.0 && p.observed)
            .count();
        let far_east = |obs: bool| {
            r.points
                .iter()
                .filter(|p| !west.contains(p.bearing_deg) && p.range_m > 60_000.0 && p.observed == obs)
                .count()
        };
        assert!(far_west_observed >= 1, "no distant western aircraft seen");
        // The paper's Figure 1(a) has a couple of lucky long-range decodes
        // outside the open sector (multipath/shadowing tails); the bulk of
        // distant non-west aircraft must be missed.
        assert!(
            far_east(true) <= 2,
            "{} distant non-west aircraft seen",
            far_east(true)
        );
        assert!(
            far_east(false) >= 3 * far_east(true).max(1),
            "missed {} vs seen {} beyond 60 km off-sector",
            far_east(false),
            far_east(true)
        );
    }

    #[test]
    fn indoor_sees_only_close_aircraft() {
        let s = Scenario::build(ScenarioKind::Indoor);
        let traffic = traffic_for(&s, 80, 13);
        let r = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &SurveyConfig::quick(), 13);
        // Figure 1(c): only close-in aircraft decode indoors. A lucky
        // deep-shadow outlier or two can stretch past 20 km; the bulk
        // cannot.
        assert!(
            r.max_observed_range_m() < 40_000.0,
            "indoor observed out to {} m",
            r.max_observed_range_m()
        );
        let observed_beyond_30km = r
            .points
            .iter()
            .filter(|p| p.observed && p.range_m > 30_000.0)
            .count();
        assert!(
            observed_beyond_30km <= 1,
            "{observed_beyond_30km} aircraft observed beyond 30 km indoors"
        );
        let observed_within_15km = r
            .points
            .iter()
            .filter(|p| p.range_m < 15_000.0)
            .filter(|p| p.observed)
            .count();
        let total_within_15km = r.points.iter().filter(|p| p.range_m < 15_000.0).count();
        if total_within_15km > 0 {
            assert!(
                observed_within_15km * 2 >= total_within_15km,
                "close-in reception should mostly work indoors: {observed_within_15km}/{total_within_15km}"
            );
        }
    }

    #[test]
    fn dead_frontend_sees_nothing() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let traffic = traffic_for(&s, 30, 4);
        let cfg = SurveyConfig {
            fault: FrontendFault::Dead,
            ..SurveyConfig::quick()
        };
        let r = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &cfg, 4);
        assert_eq!(r.total_messages, 0);
        assert_eq!(r.observation_rate(), 0.0);
    }

    #[test]
    fn decoded_positions_match_truth() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let traffic = traffic_for(&s, 30, 5);
        let r = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &SurveyConfig::quick(), 5);
        assert!(!r.decoded_positions.is_empty());
        for (icao, pos) in &r.decoded_positions {
            let f = traffic.by_icao(*icao).expect("decoded aircraft exists");
            // Position decoded from CPR pairs received over the capture:
            // within the distance flown in the window plus CPR resolution.
            let best = (0..=10)
                .map(|k| f.position_at(k as f64).distance_m(pos))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 500.0, "{icao}: CPR decode off by {best} m");
        }
    }

    #[test]
    fn points_cover_all_ground_truth() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let traffic = traffic_for(&s, 25, 6);
        let r = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &SurveyConfig::quick(), 6);
        // Every ground-truth aircraft appears exactly once.
        let mut icaos: Vec<_> = r.points.iter().map(|p| p.icao).collect();
        icaos.sort();
        icaos.dedup();
        assert_eq!(icaos.len(), r.points.len());
        for p in &r.points {
            assert!(p.range_m <= 100_000.0 + 1.0);
            if p.observed {
                assert!(p.messages > 0);
                assert!(p.mean_rssi_dbfs.is_some());
            } else {
                assert_eq!(p.messages, 0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let traffic = traffic_for(&s, 15, 7);
        let a = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &SurveyConfig::quick(), 7);
        let b = run_survey(&s.world, &s.world.index(), &s.site, &traffic, &SurveyConfig::quick(), 7);
        assert_eq!(a.points, b.points);
        assert_eq!(a.total_messages, b.total_messages);
    }

    /// The tentpole contract: the parallel pipeline is **bit-identical**
    /// to the serial one — every field, including the order of
    /// `decoded_positions` — for any thread count and several seeds.
    #[test]
    fn parallel_survey_is_bit_identical_to_serial() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        for seed in [1u64, 5, 9] {
            let traffic = traffic_for(&s, 20, seed);
            let serial = run_survey(
                &s.world,
                &s.world.index(),
                &s.site,
                &traffic,
                &SurveyConfig {
                    parallelism: 1,
                    ..SurveyConfig::quick()
                },
                seed,
            );
            assert!(!serial.decoded_positions.is_empty(), "seed {seed}: no positions");
            for parallelism in [2usize, 8] {
                let parallel = run_survey(
                    &s.world,
                    &s.world.index(),
                    &s.site,
                    &traffic,
                    &SurveyConfig {
                        parallelism,
                        ..SurveyConfig::quick()
                    },
                    seed,
                );
                assert_eq!(serial.points, parallel.points, "seed {seed} x{parallelism}");
                assert_eq!(serial.total_messages, parallel.total_messages);
                assert_eq!(serial.unmatched_messages, parallel.unmatched_messages);
                assert_eq!(serial.skipped_low_snr, parallel.skipped_low_snr);
                assert_eq!(
                    serial.decoded_positions, parallel.decoded_positions,
                    "seed {seed} x{parallelism}: position list (incl. order) must match"
                );
            }
        }
    }

    /// The SNR gate's work savings are surfaced: a permissive gate skips
    /// nothing, the default gate skips the un-decodable tail, and a harsh
    /// gate skips everything the permissive run would have rendered.
    #[test]
    fn skipped_low_snr_counts_gated_bursts() {
        let s = Scenario::build(ScenarioKind::Indoor);
        let traffic = traffic_for(&s, 30, 8);
        let survey = |snr_gate: f64| {
            run_survey(
                &s.world,
                &s.world.index(),
                &s.site,
                &traffic,
                &SurveyConfig {
                    skip_below_snr_db: snr_gate,
                    ..SurveyConfig::quick()
                },
                8,
            )
        };
        let permissive = survey(-1e9);
        let default_gate = survey(0.0);
        let harsh = survey(1e9);
        assert_eq!(permissive.skipped_low_snr, 0);
        assert!(default_gate.skipped_low_snr > 0, "indoor survey should gate some bursts");
        assert!(harsh.total_messages == 0 && harsh.skipped_low_snr > default_gate.skipped_low_snr);
    }
}
