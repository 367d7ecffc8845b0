//! The srsUE-style cell scanner.
//!
//! For each tower in the database the scanner builds the propagation path
//! from the environment model, forms the per-resource-element link budget,
//! averages a handful of fading realizations (RSRP is averaged over many
//! subframes in a real UE), and reports the measurement — or a failed
//! synchronization when the reference signal lands below the sync floor.
//! "A missing bar indicates that the signal was too weak for srsUE to
//! decode successfully." (§3.2)

use crate::tower::{CellTower, TowerDatabase};
use aircal_env::{GeoAccel, SensorSite, World};
use aircal_rfprop::noise::noise_floor_dbm;
use aircal_rfprop::{LinkBudget, PathProfile};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Scanner configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScanConfig {
    /// RSRP below which the UE cannot synchronize to the cell, dBm.
    /// (srsUE on a BladeRF with a 7 dB NF and implementation margin loses
    /// PSS/SSS around here: −108 dBm RSRP is ~17 dB of per-RE SNR.)
    pub sync_rsrp_floor_dbm: f64,
    /// Number of fading realizations averaged into one RSRP reading.
    pub averaging_draws: usize,
    /// Front-end fault at the sensor (shared with the other measurement
    /// chains — a damaged cable hurts every band).
    pub fault: aircal_sdr::FrontendFault,
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self {
            sync_rsrp_floor_dbm: -108.0,
            averaging_draws: 16,
            fault: aircal_sdr::FrontendFault::None,
        }
    }
}

/// One cell-search result.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellMeasurement {
    /// Tower name (for reports; a real UE would only know PCI/EARFCN).
    pub tower_name: String,
    /// Physical cell ID.
    pub pci: u16,
    /// Downlink EARFCN.
    pub earfcn: u32,
    /// Downlink carrier frequency, Hz.
    pub freq_hz: f64,
    /// Measured RSRP in dBm — `None` when synchronization failed (the
    /// paper's missing bar).
    pub rsrp_dbm: Option<f64>,
    /// Reference-signal SNR over one RE bandwidth, dB (when synced).
    pub rs_snr_db: Option<f64>,
    /// Deterministic obstruction loss on this path (diffraction +
    /// penetration), dB — diagnostic, not observable by a real UE.
    pub obstruction_db: f64,
}

/// Reusable working memory for a cell sweep: the linear-power fading
/// draws averaged into each tower's RSRP. Reusing one scratch across
/// sweeps keeps the steady-state scan allocation-free.
#[derive(Debug, Clone, Default)]
pub struct CellScratch {
    draws: Vec<f64>,
}

/// The scanner.
#[derive(Debug, Clone, Default)]
pub struct CellScanner {
    /// Configuration.
    pub config: ScanConfig,
}

impl CellScanner {
    /// Create a scanner.
    pub fn new(config: ScanConfig) -> Self {
        Self { config }
    }

    /// Measure one tower over `path` into caller-owned working memory
    /// and result slot: the fading draws land in `scratch` and the fields
    /// of `out` (including its name `String`) are rewritten in place, so a
    /// warm sweep performs no allocation at all.
    fn measure_into(
        &self,
        path: &PathProfile,
        site: &SensorSite,
        tower: &CellTower,
        seed: u64,
        scratch: &mut CellScratch,
        out: &mut CellMeasurement,
    ) {
        let freq = tower.dl_freq_hz();
        let bearing = site.position.bearing_deg(&tower.position);
        let elevation = site.position.elevation_deg(&tower.position);
        let rx_gain = site.antenna.gain_dbi(bearing, elevation);
        let budget = LinkBudget::new(tower.rs_eirp_per_re_dbm(), 0.0, rx_gain);

        // RSRP averages power across subframes: average fading draws in
        // the linear domain, reduced in the canonical lane order of
        // `aircal_dsp::simd` so every dispatch arm agrees bitwise.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ tower.pci as u64);
        let draws = self.config.averaging_draws.max(1);
        scratch.draws.clear();
        scratch
            .draws
            .extend((0..draws).map(|_| 10f64.powf(budget.sample_rx_dbm(path, &mut rng) / 10.0)));
        let mean_lin = (aircal_dsp::kernels().sum_f64)(&scratch.draws) / draws as f64;
        let rsrp = 10.0 * mean_lin.log10() - self.config.fault.loss_db(freq);

        let synced = rsrp >= self.config.sync_rsrp_floor_dbm;
        let rs_snr = rsrp - noise_floor_dbm(15_000.0, site.noise_figure_db);
        out.tower_name.clear();
        out.tower_name.push_str(&tower.name);
        out.pci = tower.pci;
        out.earfcn = tower.earfcn;
        out.freq_hz = freq;
        out.rsrp_dbm = synced.then_some(rsrp);
        out.rs_snr_db = synced.then_some(rs_snr);
        out.obstruction_db = path.diffraction_db + path.penetration_db;
    }

    /// Scan every tower in the database (the srsUE "cell search sweep")
    /// with a throwaway geometry accelerator and scratch. Long-lived
    /// holders keep both and call [`CellScanner::scan_with`].
    pub fn scan(
        &self,
        world: &World,
        site: &SensorSite,
        db: &TowerDatabase,
        seed: u64,
    ) -> Vec<CellMeasurement> {
        let mut out = Vec::new();
        self.scan_with(
            world,
            &mut world.accel(),
            site,
            db,
            seed,
            &mut CellScratch::default(),
            &mut out,
        );
        out
    }

    /// [`CellScanner::scan`] resolving each tower's propagation path
    /// through a caller-owned [`GeoAccel`] (spatial index + path memo),
    /// with reused working memory *and* reused result slots: towers are
    /// static, so after the first sweep every path is a cache hit, and
    /// measurements are rewritten in place (name strings included), so a
    /// warm sweep performs zero allocations. Bit-identical to the
    /// brute-force path for an accelerator built from `world`.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_with(
        &self,
        world: &World,
        accel: &mut GeoAccel,
        site: &SensorSite,
        db: &TowerDatabase,
        seed: u64,
        scratch: &mut CellScratch,
        out: &mut Vec<CellMeasurement>,
    ) {
        let _span = aircal_obs::span!("cell_scan");
        let towers = db.all();
        out.truncate(towers.len());
        for (i, t) in towers.iter().enumerate() {
            let path = accel.profile(world, site, &t.position, t.dl_freq_hz());
            if i < out.len() {
                self.measure_into(&path, site, t, seed, scratch, &mut out[i]);
            } else {
                let mut m = CellMeasurement::default();
                self.measure_into(&path, site, t, seed, scratch, &mut m);
                out.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tower::paper_towers;
    use aircal_env::{paper_scenarios, Scenario, ScenarioKind};

    fn scan_scenario(s: &Scenario) -> Vec<CellMeasurement> {
        let db = paper_towers(&s.world.origin);
        CellScanner::default().scan(&s.world, &s.site, &db, 7)
    }

    /// The paper's Figure 3 decode pattern: rooftop syncs to all five
    /// towers; the window site to towers 1–3; the indoor site to tower 1
    /// only.
    #[test]
    fn figure3_decode_pattern() {
        let scenarios = paper_scenarios();
        let pattern: Vec<Vec<bool>> = scenarios
            .iter()
            .map(|s| scan_scenario(s).iter().map(|m| m.rsrp_dbm.is_some()).collect())
            .collect();
        assert_eq!(pattern[0], vec![true; 5], "rooftop must see all towers");
        assert_eq!(
            pattern[1],
            vec![true, true, true, false, false],
            "window must see towers 1–3 only"
        );
        assert_eq!(
            pattern[2],
            vec![true, false, false, false, false],
            "indoor must see tower 1 only"
        );
    }

    /// RSRP ordering per tower: rooftop ≥ window ≥ indoor (when measured).
    #[test]
    fn rsrp_ordering_across_locations() {
        let scenarios = paper_scenarios();
        let all: Vec<Vec<CellMeasurement>> =
            scenarios.iter().map(scan_scenario).collect();
        for (t, roof_m) in all[0].iter().enumerate().take(5) {
            let roof = roof_m.rsrp_dbm;
            let window = all[1][t].rsrp_dbm;
            let indoor = all[2][t].rsrp_dbm;
            if let (Some(r), Some(w)) = (roof, window) {
                assert!(r > w, "tower {t}: roof {r} !> window {w}");
            }
            if let (Some(w), Some(i)) = (window, indoor) {
                assert!(w > i - 3.0, "tower {t}: window {w} vs indoor {i}");
            }
        }
    }

    /// Tower 1 (700 MHz) penetrates indoors — the paper's headline
    /// low-band effect — at a level near the paper's ≈ −80 dBm.
    #[test]
    fn tower1_indoor_level() {
        let indoor = Scenario::build(ScenarioKind::Indoor);
        let m = &scan_scenario(&indoor)[0];
        let rsrp = m.rsrp_dbm.expect("tower 1 must be measurable indoors");
        assert!(
            (-95.0..=-65.0).contains(&rsrp),
            "indoor tower-1 RSRP {rsrp} outside plausible band"
        );
    }

    /// Rooftop RSRP levels are "very high" (paper: roughly −40…−55 for the
    /// unobstructed towers).
    #[test]
    fn rooftop_levels_strong_for_clear_towers() {
        let roof = Scenario::build(ScenarioKind::Rooftop);
        let ms = scan_scenario(&roof);
        for m in &ms[..3] {
            let rsrp = m.rsrp_dbm.unwrap();
            assert!(
                (-70.0..=-35.0).contains(&rsrp),
                "{} rooftop RSRP {rsrp}",
                m.tower_name
            );
        }
    }

    /// The one equivalence test for the scanner: a cold and a warm
    /// `scan_with` (reused accelerator, scratch and result slots) both
    /// match a reference built on the brute-force `World::path_profile`.
    #[test]
    fn scan_with_matches_brute_force_reference() {
        for kind in [ScenarioKind::Rooftop, ScenarioKind::BehindWindow, ScenarioKind::Indoor] {
            let s = Scenario::build(kind);
            let db = paper_towers(&s.world.origin);
            let scanner = CellScanner::default();
            let reference: Vec<CellMeasurement> = db
                .all()
                .iter()
                .map(|t| {
                    let path = s.world.path_profile(&s.site, &t.position, t.dl_freq_hz());
                    let mut m = CellMeasurement::default();
                    scanner.measure_into(&path, &s.site, t, 7, &mut CellScratch::default(), &mut m);
                    m
                })
                .collect();
            let mut accel = s.world.accel();
            let mut scratch = CellScratch::default();
            let mut out = Vec::new();
            scanner.scan_with(&s.world, &mut accel, &s.site, &db, 7, &mut scratch, &mut out);
            assert_eq!(reference, out, "{kind:?}: cold scan diverged");
            scanner.scan_with(&s.world, &mut accel, &s.site, &db, 7, &mut scratch, &mut out);
            assert_eq!(reference, out, "{kind:?}: warm scan diverged");
            assert_eq!(accel.cache.hits(), db.all().len() as u64);
            assert_eq!(reference, scanner.scan(&s.world, &s.site, &db, 7));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        let db = paper_towers(&s.world.origin);
        let a = CellScanner::default().scan(&s.world, &s.site, &db, 9);
        let b = CellScanner::default().scan(&s.world, &s.site, &db, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn sync_floor_configurable() {
        // With an absurdly high floor nothing syncs; with a very low one
        // everything does.
        let s = Scenario::build(ScenarioKind::Rooftop);
        let db = paper_towers(&s.world.origin);
        let deaf = CellScanner::new(ScanConfig {
            sync_rsrp_floor_dbm: 0.0,
            averaging_draws: 4,
            ..Default::default()
        });
        assert!(deaf
            .scan(&s.world, &s.site, &db, 1)
            .iter()
            .all(|m| m.rsrp_dbm.is_none()));
        let keen = CellScanner::new(ScanConfig {
            sync_rsrp_floor_dbm: -200.0,
            averaging_draws: 4,
            ..Default::default()
        });
        assert!(keen
            .scan(&s.world, &s.site, &db, 1)
            .iter()
            .all(|m| m.rsrp_dbm.is_some()));
    }
}
