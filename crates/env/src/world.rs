//! The world model and the geometry → path-profile computation.

use crate::building::Building;
use crate::index::{GeoScratch, PathCache, WorldIndex};
use crate::site::SensorSite;
use aircal_geo::{LatLon, Point2, Segment2};
use aircal_rfprop::diffraction::knife_edge_loss_db;
use aircal_rfprop::PathProfile;
use serde::{Deserialize, Serialize};

/// A simulated world: a geographic origin anchoring the local ENU frame,
/// plus the buildings that obstruct propagation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct World {
    /// Geographic anchor of the local ENU frame (all building footprints
    /// are meters east/north of this point).
    pub origin: LatLon,
    /// Obstructing structures.
    pub buildings: Vec<Building>,
}

impl World {
    /// An empty world (free space) anchored at `origin`.
    pub fn open(origin: LatLon) -> Self {
        Self {
            origin,
            buildings: Vec::new(),
        }
    }

    /// Add a building (builder style).
    pub fn with_building(mut self, b: Building) -> Self {
        self.buildings.push(b);
        self
    }

    /// Project a geographic position into the world's 2-D ENU plane.
    pub fn project(&self, pos: &LatLon) -> Point2 {
        let enu = self.origin.enu_of(pos);
        Point2::new(enu.east, enu.north)
    }

    /// Compute the full propagation path profile from an emitter at
    /// `emitter` (altitude in `alt_m`, meters above local ground) to the
    /// sensor at `site`, for a carrier at `freq_hz`.
    ///
    /// For every building whose footprint the 2-D ray track crosses, the
    /// model charges the *cheaper* of (a) knife-edge diffraction over the
    /// roof and (b) wall + interior penetration straight through — radio
    /// takes the easiest path. The sensor's own enclosure (if indoors) adds
    /// its direction-dependent exit loss. Fading statistics (Rician K,
    /// shadowing σ) are set from how obstructed the path ended up, which is
    /// what produces the paper's "close aircraft received regardless of
    /// direction" multipath behaviour.
    pub fn path_profile(&self, site: &SensorSite, emitter: &LatLon, freq_hz: f64) -> PathProfile {
        let sensor_2d = self.project(&site.position);
        let emitter_2d = self.project(emitter);
        let (mut hits, mut ts) = (Vec::new(), Vec::new());
        self.profile_core(
            site,
            emitter,
            freq_hz,
            sensor_2d,
            emitter_2d,
            0..self.buildings.len(),
            &mut hits,
            &mut ts,
        )
    }

    /// [`path_profile`](Self::path_profile) accelerated by a prebuilt
    /// [`WorldIndex`]: only buildings whose padded AABB the track can
    /// touch run the exact polygon math. **Bit-identical** to the brute
    /// force scan — pruned buildings would have contributed exactly 0 dB,
    /// and survivors are visited in the same ascending order.
    pub fn path_profile_indexed(
        &self,
        index: &WorldIndex,
        site: &SensorSite,
        emitter: &LatLon,
        freq_hz: f64,
        scratch: &mut GeoScratch,
    ) -> PathProfile {
        let sensor_2d = index.project(&site.position);
        self.profile_indexed_at(index, site, emitter, freq_hz, sensor_2d, scratch)
    }

    /// Indexed profile with the site's 2-D projection already in hand
    /// (the obstruction sweep hoists it out of the per-emitter loop).
    fn profile_indexed_at(
        &self,
        index: &WorldIndex,
        site: &SensorSite,
        emitter: &LatLon,
        freq_hz: f64,
        sensor_2d: Point2,
        scratch: &mut GeoScratch,
    ) -> PathProfile {
        let emitter_2d = index.project(emitter);
        let track = Segment2::new(sensor_2d, emitter_2d);
        index.candidates_into(&track, scratch);
        let GeoScratch {
            candidates,
            hits,
            ts,
            ..
        } = scratch;
        self.profile_core(
            site,
            emitter,
            freq_hz,
            sensor_2d,
            emitter_2d,
            candidates.iter().map(|&i| i as usize),
            hits,
            ts,
        )
    }

    /// The shared per-building accumulation loop. `ids` selects which
    /// buildings to test (all of them for the brute-force reference, the
    /// index's pruned candidate set for the accelerated paths); every
    /// survivor runs the identical arithmetic in ascending-id order, so
    /// any `ids` superset of the interacting buildings yields identical
    /// bits.
    #[allow(clippy::too_many_arguments)]
    fn profile_core<I: Iterator<Item = usize>>(
        &self,
        site: &SensorSite,
        emitter: &LatLon,
        freq_hz: f64,
        sensor_2d: Point2,
        emitter_2d: Point2,
        ids: I,
        hits: &mut Vec<(f64, Point2)>,
        ts: &mut Vec<f64>,
    ) -> PathProfile {
        let ground_raw = site.position.distance_m(emitter);
        let ground_dist = ground_raw.max(1.0);
        let dh = emitter.alt_m - site.position.alt_m;
        let slant = (ground_raw * ground_raw + dh * dh).sqrt().max(1.0);
        let bearing = site.position.bearing_deg(emitter);
        let elevation = dh.atan2(ground_raw).to_degrees();

        let track = Segment2::new(sensor_2d, emitter_2d);

        let h_sensor = site.position.alt_m;
        let h_emitter = emitter.alt_m;

        let mut diffraction_db = 0.0;
        let mut penetration_db = 0.0;

        for idx in ids {
            let b = &self.buildings[idx];
            // The host building of an enclosed sensor is modeled by the
            // enclosure, not by its footprint (avoids double counting).
            if site.enclosure.is_some() && b.footprint.contains(&sensor_2d) {
                continue;
            }
            let Some((first_crossing_m, through)) = b.cut_with(&track, freq_hz, hits, ts) else {
                continue;
            };
            // A blocking footprint with no boundary crossing (sensor and
            // emitter both project inside it) has no crossing distance;
            // fall back to the track midpoint rather than pinning the
            // edge 1 m from the sensor, which maximized knife-edge loss.
            let d_c = first_crossing_m
                .unwrap_or(0.5 * ground_dist)
                .clamp(1.0, ground_dist);
            let t = (d_c / ground_dist).clamp(0.0, 1.0);
            let h_ray = h_sensor + (h_emitter - h_sensor) * t;
            let h_excess = b.height_m - h_ray;
            let over = knife_edge_loss_db(h_excess, d_c, (ground_dist - d_c).max(1.0), freq_hz);
            if over <= through {
                diffraction_db += over;
            } else {
                penetration_db += through;
            }
        }

        if let Some(enc) = &site.enclosure {
            penetration_db += enc.exit_loss_db(bearing, elevation, freq_hz);
        }

        let extra = diffraction_db + penetration_db;
        let (k_factor_db, shadowing_sigma_db) = if extra < 3.0 {
            (12.0, 2.0)
        } else if extra < 15.0 {
            (6.0, 4.0)
        } else {
            // Deep obstruction: Rayleigh-like multipath. σ stays moderate —
            // the dominant loss is already deterministic, and a large σ
            // would let implausibly many deep-shadow links "get lucky".
            (1.0, 5.0)
        };

        PathProfile {
            distance_m: slant,
            freq_hz,
            diffraction_db,
            penetration_db,
            excess_db: 0.0,
            k_factor_db,
            shadowing_sigma_db,
        }
    }

    /// Sample the deterministic obstruction loss (diffraction +
    /// penetration, dB) around the full circle at a fixed elevation and
    /// range: the world's ground-truth visibility profile for a site.
    ///
    /// Returns `n` samples at bearings `i·360/n`.
    pub fn obstruction_profile(
        &self,
        site: &SensorSite,
        freq_hz: f64,
        elevation_deg: f64,
        range_m: f64,
        n: usize,
    ) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let bearing = i as f64 * 360.0 / n as f64;
                let mut emitter = site.position.destination(bearing, range_m);
                emitter.alt_m =
                    site.position.alt_m + elevation_deg.to_radians().tan() * range_m;
                let p = self.path_profile(site, &emitter, freq_hz);
                p.diffraction_db + p.penetration_db
            })
            .collect()
    }

    /// Indexed, optionally memoized [`Self::obstruction_profile`]
    /// writing into a caller-owned buffer.
    /// The sweep emitters are a pure function of (site, elevation, range,
    /// `n`), so with a cache a repeated sweep is served entirely from the
    /// memo. Bit-identical to the brute-force form.
    #[allow(clippy::too_many_arguments)]
    pub fn obstruction_profile_with(
        &self,
        index: &WorldIndex,
        cache: Option<&mut PathCache>,
        site: &SensorSite,
        freq_hz: f64,
        elevation_deg: f64,
        range_m: f64,
        n: usize,
        scratch: &mut GeoScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let sensor_2d = index.project(&site.position);
        let mut cache = cache;
        for i in 0..n {
            let bearing = i as f64 * 360.0 / n as f64;
            let mut emitter = site.position.destination(bearing, range_m);
            emitter.alt_m = site.position.alt_m + elevation_deg.to_radians().tan() * range_m;
            let p = match cache.as_deref_mut() {
                Some(c) => c.profile(self, index, site, &emitter, freq_hz, scratch),
                None => self.profile_indexed_at(index, site, &emitter, freq_hz, sensor_2d, scratch),
            };
            out.push(p.diffraction_db + p.penetration_db);
        }
    }

    /// Build the spatial acceleration index for this world's current
    /// buildings (see [`WorldIndex`]); rebuild after mutating them.
    pub fn index(&self) -> WorldIndex {
        WorldIndex::new(self)
    }

    /// Build the bundled accelerator (index + path memo + scratch) for
    /// this world (see [`crate::GeoAccel`]).
    pub fn accel(&self) -> crate::GeoAccel {
        crate::GeoAccel::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_geo::Sector;
    use aircal_rfprop::Material;

    fn origin() -> LatLon {
        LatLon::surface(37.8716, -122.2727)
    }

    fn aircraft_at(site: &SensorSite, bearing: f64, range_m: f64, alt_m: f64) -> LatLon {
        let mut p = site.position.destination(bearing, range_m);
        p.alt_m = alt_m;
        p
    }

    #[test]
    fn open_world_is_lossless() {
        let w = World::open(origin());
        let site = SensorSite::outdoor("roof", LatLon::new(37.8716, -122.2727, 20.0));
        let ac = aircraft_at(&site, 90.0, 50_000.0, 10_000.0);
        let p = w.path_profile(&site, &ac, 1.09e9);
        assert_eq!(p.diffraction_db, 0.0);
        assert_eq!(p.penetration_db, 0.0);
        assert!(!p.is_obstructed());
        assert!((p.distance_m - site.position.slant_range_m(&ac)).abs() < 1.0);
    }

    #[test]
    fn building_blocks_low_elevation_not_high() {
        let w = World::open(origin()).with_building(Building::rect(
            "tower",
            Point2::new(20.0, 0.0), // 20 m east of the sensor
            10.0,
            40.0,
            60.0, // much taller than the sensor
            Material::Concrete,
        ));
        let site = SensorSite::outdoor("s", LatLon::new(37.8716, -122.2727, 2.0));
        // Distant aircraft low on the eastern horizon: deeply shadowed.
        let low = aircraft_at(&site, 90.0, 80_000.0, 3_000.0);
        let p_low = w.path_profile(&site, &low, 1.09e9);
        assert!(
            p_low.diffraction_db + p_low.penetration_db > 15.0,
            "low path only {} dB",
            p_low.diffraction_db + p_low.penetration_db
        );
        // Nearby aircraft almost overhead: the ray clears the roof.
        let high = aircraft_at(&site, 90.0, 2_000.0, 10_000.0);
        let p_high = w.path_profile(&site, &high, 1.09e9);
        assert!(
            p_high.diffraction_db + p_high.penetration_db < 1.0,
            "high path {} dB",
            p_high.diffraction_db + p_high.penetration_db
        );
        // West is unaffected.
        let west = aircraft_at(&site, 270.0, 80_000.0, 3_000.0);
        let p_west = w.path_profile(&site, &west, 1.09e9);
        assert_eq!(p_west.diffraction_db + p_west.penetration_db, 0.0);
    }

    #[test]
    fn obstructed_path_gets_multipath_statistics() {
        let w = World::open(origin()).with_building(Building::rect(
            "slab",
            Point2::new(15.0, 0.0),
            6.0,
            60.0,
            80.0,
            Material::Concrete,
        ));
        let site = SensorSite::outdoor("s", LatLon::new(37.8716, -122.2727, 2.0));
        let blocked = aircraft_at(&site, 90.0, 60_000.0, 2_000.0);
        let clear = aircraft_at(&site, 270.0, 60_000.0, 2_000.0);
        let p_b = w.path_profile(&site, &blocked, 1.09e9);
        let p_c = w.path_profile(&site, &clear, 1.09e9);
        assert!(p_b.k_factor_db < p_c.k_factor_db);
        assert!(p_b.shadowing_sigma_db > p_c.shadowing_sigma_db);
    }

    #[test]
    fn enclosure_skips_host_building() {
        // Sensor inside a building with a window enclosure: the footprint
        // must not double-charge the exit.
        let host = Building::rect(
            "host",
            Point2::new(0.0, 0.0),
            30.0,
            25.0,
            18.0,
            Material::Concrete,
        );
        let w = World::open(origin()).with_building(host);
        let enc = crate::site::Enclosure::behind_window(Sector::centered(135.0, 40.0));
        let site = SensorSite::indoor("w", LatLon::new(37.8716, -122.2727, 15.0), enc);
        let through_window = aircraft_at(&site, 135.0, 50_000.0, 3_000.0);
        let p = w.path_profile(&site, &through_window, 1.09e9);
        // Only the glass (≈ 2 dB), not glass + concrete.
        assert!(
            p.penetration_db < 4.0,
            "window exit cost {} dB",
            p.penetration_db
        );
    }

    #[test]
    fn obstruction_profile_shape() {
        let w = World::open(origin()).with_building(Building::rect(
            "east-wall",
            Point2::new(25.0, 0.0),
            10.0,
            80.0,
            70.0,
            Material::Concrete,
        ));
        let site = SensorSite::outdoor("s", LatLon::new(37.8716, -122.2727, 2.0));
        let prof = w.obstruction_profile(&site, 1.09e9, 2.0, 50_000.0, 36);
        // East (index 9 = 90°) blocked, west (index 27 = 270°) clear.
        assert!(prof[9] > 10.0, "east {}", prof[9]);
        assert_eq!(prof[27], 0.0, "west should be clear");
    }

    #[test]
    fn tangent_ray_along_footprint_edge_uses_real_crossing() {
        // Track collinear with the building's southern edge: the overlap
        // start is a legitimate crossing, so the knife edge must sit at
        // the footprint, not at a degenerate fallback distance.
        let b = Building::rect("slab", Point2::new(15.0, 5.0), 10.0, 10.0, 40.0, Material::Concrete);
        // Southern edge runs y = 0 from x = 10 to x = 20.
        let track = Segment2::new(Point2::new(0.0, 0.0), Point2::new(40.0, 0.0));
        let d = b.first_crossing_distance(&track).expect("tangent ray crosses");
        assert!((d - 10.0).abs() < 1e-9, "crossing at {d}");
        assert!(b.blocks_track(&track));
    }

    #[test]
    fn degenerate_crossing_falls_back_to_track_midpoint() {
        // Outdoor sensor standing inside a footprint (courtyard-style
        // model, no enclosure) with the aircraft almost overhead: the
        // 2-D track never crosses the boundary, so there is no crossing
        // distance. The fallback must place the edge at the track
        // midpoint — the old 1 m fallback pinned it at the sensor and
        // maximized knife-edge loss.
        let w = World::open(origin()).with_building(Building::rect(
            "hall",
            Point2::new(0.0, 0.0),
            60.0,
            60.0,
            30.0,
            Material::Concrete,
        ));
        let site = SensorSite::outdoor("s", LatLon::new(37.8716, -122.2727, 2.0));
        let overhead = aircraft_at(&site, 0.0, 5.0, 9_000.0);
        let p = w.path_profile(&site, &overhead, 1.09e9);

        // Reproduce the loop arithmetic with the midpoint fallback and
        // check the charged loss matches exactly.
        let ground_raw = site.position.distance_m(&overhead);
        let ground_dist = ground_raw.max(1.0);
        let d_c = (0.5 * ground_dist).clamp(1.0, ground_dist);
        let t = (d_c / ground_dist).clamp(0.0, 1.0);
        let h_ray = 2.0 + (9_000.0 - 2.0) * t;
        let over = aircal_rfprop::diffraction::knife_edge_loss_db(
            30.0 - h_ray,
            d_c,
            (ground_dist - d_c).max(1.0),
            1.09e9,
        );
        let sensor_2d = w.project(&site.position);
        let emitter_2d = w.project(&overhead);
        let through = w.buildings[0]
            .through_loss_db(&Segment2::new(sensor_2d, emitter_2d), 1.09e9);
        let expect = if over <= through { (over, 0.0) } else { (0.0, through) };
        assert_eq!(p.diffraction_db.to_bits(), expect.0.to_bits());
        assert_eq!(p.penetration_db.to_bits(), expect.1.to_bits());
        // Overhead ray well above the 30 m roof at midpoint: no loss.
        assert_eq!(p.diffraction_db + p.penetration_db, 0.0);
    }

    #[test]
    fn indexed_and_cached_profiles_match_brute_force_bits() {
        let mut w = World::open(origin());
        for i in 0..40 {
            let ang = i as f64 * 9.0;
            w = w.with_building(Building::rect(
                format!("b{i}"),
                Point2::from_bearing(ang, 40.0 + (i % 7) as f64 * 35.0),
                12.0 + (i % 4) as f64 * 6.0,
                9.0 + (i % 5) as f64 * 7.0,
                6.0 + (i % 6) as f64 * 9.0,
                Material::Concrete,
            ));
        }
        let site = SensorSite::outdoor("s", LatLon::new(37.8716, -122.2727, 2.0));
        let mut accel = w.accel();
        let mut scratch = crate::GeoScratch::new();
        for (brg, rng, alt, freq) in [
            (10.0, 60_000.0, 9_000.0, 1.09e9),
            (97.0, 1_500.0, 300.0, 0.615e9),
            (211.0, 30_000.0, 11_000.0, 1.09e9),
            (340.0, 250.0, 50.0, 2.65e9),
        ] {
            let ac = aircraft_at(&site, brg, rng, alt);
            let brute = w.path_profile(&site, &ac, freq);
            let fast = w.path_profile_indexed(&accel.index, &site, &ac, freq, &mut scratch);
            let cold = accel.profile(&w, &site, &ac, freq);
            let warm = accel.profile(&w, &site, &ac, freq);
            for got in [&fast, &cold, &warm] {
                assert_eq!(brute.distance_m.to_bits(), got.distance_m.to_bits());
                assert_eq!(brute.diffraction_db.to_bits(), got.diffraction_db.to_bits());
                assert_eq!(brute.penetration_db.to_bits(), got.penetration_db.to_bits());
                assert_eq!(brute.k_factor_db.to_bits(), got.k_factor_db.to_bits());
                assert_eq!(brute.shadowing_sigma_db.to_bits(), got.shadowing_sigma_db.to_bits());
            }
        }
        assert_eq!(accel.cache.hits(), 4);
        assert_eq!(accel.cache.misses(), 4);
    }

    #[test]
    fn sweep_variants_match_brute_force() {
        let w = World::open(origin())
            .with_building(Building::rect("a", Point2::new(25.0, 0.0), 10.0, 80.0, 70.0, Material::Concrete))
            .with_building(Building::rect("b", Point2::new(-40.0, 10.0), 30.0, 12.0, 22.0, Material::Brick));
        let site = SensorSite::outdoor("s", LatLon::new(37.8716, -122.2727, 2.0));
        let index = w.index();
        let mut scratch = crate::GeoScratch::new();
        let brute = w.obstruction_profile(&site, 1.09e9, 2.0, 50_000.0, 36);
        let mut cache = crate::PathCache::new();
        let mut fast = Vec::new();
        w.obstruction_profile_with(
            &index, Some(&mut cache), &site, 1.09e9, 2.0, 50_000.0, 36, &mut scratch, &mut fast,
        );
        assert_eq!(brute.len(), fast.len());
        for (a, b) in brute.iter().zip(&fast) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Second sweep is served entirely from the memo, same bits.
        let mut warm = Vec::new();
        w.obstruction_profile_with(
            &index, Some(&mut cache), &site, 1.09e9, 2.0, 50_000.0, 36, &mut scratch, &mut warm,
        );
        assert_eq!(cache.hits(), 36);
        for (a, b) in fast.iter().zip(&warm) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn project_round_trip_accuracy() {
        let w = World::open(origin());
        let p = origin().destination(45.0, 1_000.0);
        let xy = w.project(&p);
        // Spherical destination vs ellipsoidal ENU agree to ~0.3% at 1 km.
        assert!((xy.range_m() - 1_000.0).abs() < 5.0);
        assert!((xy.bearing_deg() - 45.0).abs() < 0.5);
    }
}
