//! Spatial acceleration for the world→PHY hot path.
//!
//! Every ADS-B burst plan, TV sweep channel and cellular scan calls
//! [`World::path_profile`](crate::World::path_profile), which brute-forces
//! all buildings and re-projects the site per call. This module makes that
//! hot path fast without changing a single output bit:
//!
//! * [`WorldIndex`] — a uniform grid over (padded) building-footprint
//!   AABBs with a conservative ray-traversal query. Pruned buildings are
//!   exactly those that provably cannot touch the 2-D track, so the
//!   accelerated profile is **bit-identical** to the brute-force scan
//!   (excluded buildings contribute exactly 0 dB and never touch the
//!   accumulators; survivors are visited in the same ascending order).
//! * [`PathCache`] — an exact-key memo for static emitters (TV/cell
//!   towers, obstruction-sweep points): key = the *bit patterns* of the
//!   site position, enclosure flag, emitter position and frequency, so a
//!   hit can only ever return what a miss would have computed.
//! * [`GeoScratch`] — caller-owned buffers in the PR-4 `DspScratch`
//!   style, so the steady-state query loop is allocation-free.
//!
//! ## Exactness argument
//!
//! A building contributes to a profile only if its footprint contains the
//! track start or its boundary crosses the track; both imply the track
//! intersects the footprint's closed AABB. Buildings are binned into grid
//! cells by AABBs padded by [`PAD_M`] (≫ any f64 rounding at city scale),
//! and the query walks every cell whose slab the track's clipped interval
//! overlaps, padded again by [`QUERY_EPS_M`]; a final per-candidate exact
//! slab test only discards boxes the segment provably misses. Hence the
//! candidate set is a superset of the contributing set, and the survivors
//! run the identical per-building arithmetic.

use crate::site::SensorSite;
use crate::world::World;
use aircal_geo::{Aabb2, EnuFrame, LatLon, Point2, Segment2};
use aircal_rfprop::PathProfile;
use std::collections::HashMap;

/// Padding applied to building AABBs before binning, meters. City-scale
/// coordinates stay below ~1e5 m, where f64 rounding is ~1e-11 m; a
/// millimeter of slack makes floating-point corner grazes unmissable
/// while adding no measurable false-positive cost.
const PAD_M: f64 = 1e-3;

/// Padding applied to slab/cell windows during traversal, meters.
const QUERY_EPS_M: f64 = 1e-6;

/// Uniform-grid spatial index over a [`World`]'s building footprints,
/// plus the world's precomputed ENU projection frame.
///
/// An index is a pure function of the world that built it: rebuild after
/// mutating `world.buildings` or `world.origin`.
#[derive(Debug, Clone)]
pub struct WorldIndex {
    frame: EnuFrame,
    /// Padded footprint AABBs, indexed by building id.
    aabbs: Vec<Aabb2>,
    bounds: Aabb2,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
    /// CSR layout: cell `c` holds `cell_items[cell_start[c]..cell_start[c+1]]`.
    cell_start: Vec<u32>,
    cell_items: Vec<u32>,
}

impl WorldIndex {
    /// Build the index for a world.
    pub fn new(world: &World) -> Self {
        let frame = EnuFrame::new(&world.origin);
        let aabbs: Vec<Aabb2> = world.buildings.iter().map(|b| b.aabb().expand(PAD_M)).collect();
        let mut bounds = Aabb2::empty();
        for b in &aabbs {
            bounds = bounds.union(b);
        }
        if aabbs.is_empty() || bounds.is_empty() {
            return Self {
                frame,
                aabbs,
                bounds: Aabb2::empty(),
                nx: 0,
                ny: 0,
                cell_w: 1.0,
                cell_h: 1.0,
                cell_start: vec![0],
                cell_items: Vec::new(),
            };
        }

        // ~2·√n cells per axis keeps occupancy near O(1) per cell for
        // roughly uniform layouts while bounding the grid footprint.
        let per_axis = (((aabbs.len() as f64).sqrt().ceil() as usize) * 2).clamp(1, 192);
        let (nx, ny) = (per_axis, per_axis);
        let cell_w = (bounds.width() / nx as f64).max(1e-6);
        let cell_h = (bounds.height() / ny as f64).max(1e-6);

        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); nx * ny];
        for (bi, bb) in aabbs.iter().enumerate() {
            let i0 = cell_of((bb.min.x - bounds.min.x) / cell_w, nx);
            let i1 = cell_of((bb.max.x - bounds.min.x) / cell_w, nx);
            let j0 = cell_of((bb.min.y - bounds.min.y) / cell_h, ny);
            let j1 = cell_of((bb.max.y - bounds.min.y) / cell_h, ny);
            for j in j0..=j1 {
                for i in i0..=i1 {
                    cells[j * nx + i].push(bi as u32);
                }
            }
        }

        let mut cell_start = Vec::with_capacity(nx * ny + 1);
        let mut cell_items = Vec::new();
        cell_start.push(0u32);
        for c in &cells {
            cell_items.extend_from_slice(c);
            cell_start.push(cell_items.len() as u32);
        }

        Self {
            frame,
            aabbs,
            bounds,
            nx,
            ny,
            cell_w,
            cell_h,
            cell_start,
            cell_items,
        }
    }

    /// Number of indexed buildings.
    pub fn n_buildings(&self) -> usize {
        self.aabbs.len()
    }

    /// Grid dimensions `(nx, ny)` — `(0, 0)` for an empty world.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Project a geographic position into the world's 2-D ENU plane;
    /// bit-identical to [`World::project`] for the anchoring world.
    pub fn project(&self, pos: &LatLon) -> Point2 {
        let enu = self.frame.enu_of(pos);
        Point2::new(enu.east, enu.north)
    }

    /// Collect into `scratch.candidates` the ids (ascending, deduplicated)
    /// of every building whose padded AABB the track could touch. The
    /// result is a superset of the buildings that interact with `seg`.
    pub fn candidates_into(&self, seg: &Segment2, scratch: &mut GeoScratch) {
        scratch.begin(self.aabbs.len());
        if self.nx == 0 {
            return;
        }
        let Some((t0, t1)) = self.bounds.expand(QUERY_EPS_M).clip_segment(seg) else {
            return;
        };
        let (dx, dy) = (seg.b.x - seg.a.x, seg.b.y - seg.a.y);
        let (ya, yb) = (seg.a.y + t0 * dy, seg.a.y + t1 * dy);
        let j0 = cell_of((ya.min(yb) - QUERY_EPS_M - self.bounds.min.y) / self.cell_h, self.ny);
        let j1 = cell_of((ya.max(yb) + QUERY_EPS_M - self.bounds.min.y) / self.cell_h, self.ny);

        for j in j0..=j1 {
            let slab_lo = self.bounds.min.y + j as f64 * self.cell_h - QUERY_EPS_M;
            let slab_hi = self.bounds.min.y + (j + 1) as f64 * self.cell_h + QUERY_EPS_M;
            // Parameter window of the track inside this row's y-slab.
            let (u0, u1) = if dy == 0.0 {
                if seg.a.y < slab_lo || seg.a.y > slab_hi {
                    continue;
                }
                (t0, t1)
            } else {
                let (mut c0, mut c1) = ((slab_lo - seg.a.y) / dy, (slab_hi - seg.a.y) / dy);
                if c0 > c1 {
                    std::mem::swap(&mut c0, &mut c1);
                }
                let (u0, u1) = (t0.max(c0), t1.min(c1));
                if u0 > u1 {
                    continue;
                }
                (u0, u1)
            };
            let (xa, xb) = (seg.a.x + u0 * dx, seg.a.x + u1 * dx);
            let i0 = cell_of((xa.min(xb) - QUERY_EPS_M - self.bounds.min.x) / self.cell_w, self.nx);
            let i1 = cell_of((xa.max(xb) + QUERY_EPS_M - self.bounds.min.x) / self.cell_w, self.nx);
            for i in i0..=i1 {
                let c = j * self.nx + i;
                let lo = self.cell_start[c] as usize;
                let hi = self.cell_start[c + 1] as usize;
                for &bi in &self.cell_items[lo..hi] {
                    if scratch.stamp[bi as usize] == scratch.epoch {
                        continue;
                    }
                    scratch.stamp[bi as usize] = scratch.epoch;
                    scratch.stats.aabb_tests += 1;
                    if self.aabbs[bi as usize].intersects_segment(seg) {
                        scratch.candidates.push(bi);
                    }
                }
            }
        }
        // Ascending building order: the accumulation loop must visit
        // survivors in exactly the brute-force order for bit-identity.
        scratch.candidates.sort_unstable();
        scratch.stats.candidates += scratch.candidates.len() as u64;
    }
}

/// Map a (possibly slightly out-of-range) cell coordinate to a valid index.
fn cell_of(v: f64, n: usize) -> usize {
    (v.floor() as isize).clamp(0, n as isize - 1) as usize
}

/// Counters describing how much work the accelerated geometry path did —
/// exported through `aircal-obs` by the calibration engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GeoStats {
    /// Index queries issued (one per accelerated `path_profile`).
    pub queries: u64,
    /// Per-building AABB tests performed during traversal.
    pub aabb_tests: u64,
    /// Candidates that survived pruning (exact polygon math ran).
    pub candidates: u64,
}

impl GeoStats {
    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &GeoStats) {
        self.queries += other.queries;
        self.aabb_tests += other.aabb_tests;
        self.candidates += other.candidates;
    }

    /// Return the accumulated counters and reset them to zero.
    pub fn take(&mut self) -> GeoStats {
        std::mem::take(self)
    }
}

/// Caller-owned scratch buffers for the accelerated geometry path, in the
/// `DspScratch` style: warm buffers make the per-profile loop
/// allocation-free in steady state.
#[derive(Debug, Default, Clone)]
pub struct GeoScratch {
    /// Last-seen epoch per building id (deduplicates grid-cell visits).
    pub(crate) stamp: Vec<u32>,
    pub(crate) epoch: u32,
    /// Candidate building ids from the last query, ascending.
    pub(crate) candidates: Vec<u32>,
    /// Boundary-crossings buffer shared by the per-building cut.
    pub(crate) hits: Vec<(f64, Point2)>,
    /// Chord-partition buffer shared by the per-building cut.
    pub(crate) ts: Vec<f64>,
    /// Work counters (monotone; drain with [`GeoStats::take`]).
    pub stats: GeoStats,
}

impl GeoScratch {
    /// Fresh scratch (buffers grow on first use, then stay warm).
    pub fn new() -> Self {
        Self::default()
    }

    /// Candidate ids from the most recent query.
    pub fn last_candidates(&self) -> &[u32] {
        &self.candidates
    }

    fn begin(&mut self, n_buildings: usize) {
        if self.stamp.len() < n_buildings {
            self.stamp.resize(n_buildings, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap after ~4e9 queries: reset stamps once, keep going.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.candidates.clear();
        self.stats.queries += 1;
    }
}

/// Exact-bit memo key: a cache hit can only return what the miss path
/// would have computed, because every input that influences the profile
/// (site position and enclosure flag, emitter position, frequency) is
/// captured by its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PathKey {
    site: [u64; 3],
    indoor: bool,
    emitter: [u64; 3],
    freq: u64,
}

impl PathKey {
    fn of(site: &SensorSite, emitter: &LatLon, freq_hz: f64) -> Self {
        Self {
            site: [
                site.position.lat_deg.to_bits(),
                site.position.lon_deg.to_bits(),
                site.position.alt_m.to_bits(),
            ],
            indoor: site.enclosure.is_some(),
            emitter: [
                emitter.lat_deg.to_bits(),
                emitter.lon_deg.to_bits(),
                emitter.alt_m.to_bits(),
            ],
            freq: freq_hz.to_bits(),
        }
    }
}

/// Exact-key propagation memo for static emitters (TV towers, cell
/// towers, obstruction-sweep points).
///
/// A cache belongs to the [`World`] whose profiles it stores: clear or
/// drop it when the world's buildings change. Site/emitter/frequency are
/// all part of the key, so one cache may serve many sites against the
/// same world.
#[derive(Debug, Default, Clone)]
pub struct PathCache {
    map: HashMap<PathKey, PathProfile>,
    hits: u64,
    misses: u64,
    published_hits: u64,
    published_misses: u64,
}

impl PathCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized indexed profile: serves a repeat (site, emitter,
    /// frequency) lookup from the memo, and on a miss computes
    /// [`World::path_profile_indexed`] and stores it. Exact bit-pattern
    /// keys, so a hit returns exactly what the miss path would have
    /// computed. Callers outside this crate reach it through
    /// [`GeoAccel::profile`].
    pub(crate) fn profile(
        &mut self,
        world: &World,
        index: &WorldIndex,
        site: &SensorSite,
        emitter: &LatLon,
        freq_hz: f64,
        scratch: &mut GeoScratch,
    ) -> PathProfile {
        let key = PathKey::of(site, emitter, freq_hz);
        if let Some(p) = self.map.get(&key) {
            self.hits += 1;
            return *p;
        }
        self.misses += 1;
        let p = world.path_profile_indexed(index, site, emitter, freq_hz, scratch);
        self.map.insert(key, p);
        p
    }

    /// Number of memoized profiles.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the geometry path.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served from the memo (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drop all entries and counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
        self.published_hits = 0;
        self.published_misses = 0;
    }

    /// `(hits, misses)` accumulated since the previous call — the delta
    /// form the observability layer wants for monotone counters.
    pub fn take_delta(&mut self) -> (u64, u64) {
        let d = (self.hits - self.published_hits, self.misses - self.published_misses);
        self.published_hits = self.hits;
        self.published_misses = self.misses;
        d
    }
}

/// Bundled accelerator for one world: index + memo + scratch. The
/// ergonomic front door for long-lived holders (network nodes, the
/// calibration engine); hot loops that shard work across threads use the
/// parts individually.
#[derive(Debug, Clone)]
pub struct GeoAccel {
    pub index: WorldIndex,
    pub cache: PathCache,
    pub scratch: GeoScratch,
}

impl GeoAccel {
    /// Build the accelerator for a world.
    pub fn new(world: &World) -> Self {
        Self {
            index: WorldIndex::new(world),
            cache: PathCache::new(),
            scratch: GeoScratch::new(),
        }
    }

    /// Memoized, indexed path profile; bit-identical to
    /// `world.path_profile(site, emitter, freq_hz)` for the world this
    /// accelerator was built from.
    pub fn profile(
        &mut self,
        world: &World,
        site: &SensorSite,
        emitter: &LatLon,
        freq_hz: f64,
    ) -> PathProfile {
        self.cache
            .profile(world, &self.index, site, emitter, freq_hz, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::Building;
    use aircal_rfprop::Material;

    fn origin() -> LatLon {
        LatLon::surface(37.8716, -122.2727)
    }

    fn grid_world(n_per_side: usize) -> World {
        let mut w = World::open(origin());
        for i in 0..n_per_side {
            for j in 0..n_per_side {
                w = w.with_building(Building::rect(
                    format!("b{i}-{j}"),
                    Point2::new(i as f64 * 60.0 - 300.0, j as f64 * 60.0 - 300.0),
                    20.0,
                    20.0,
                    10.0 + ((i + j) % 5) as f64 * 8.0,
                    Material::Concrete,
                ));
            }
        }
        w
    }

    #[test]
    fn empty_world_has_no_candidates() {
        let w = World::open(origin());
        let idx = WorldIndex::new(&w);
        assert_eq!(idx.grid_dims(), (0, 0));
        let mut s = GeoScratch::new();
        let seg = Segment2::new(Point2::new(-100.0, 0.0), Point2::new(100.0, 0.0));
        idx.candidates_into(&seg, &mut s);
        assert!(s.last_candidates().is_empty());
        assert_eq!(s.stats.queries, 1);
    }

    #[test]
    fn candidates_are_sorted_superset_of_interacting_buildings() {
        let w = grid_world(8);
        let idx = WorldIndex::new(&w);
        let mut s = GeoScratch::new();
        for (a, b) in [
            (Point2::new(-400.0, -123.0), Point2::new(400.0, 200.0)),
            (Point2::new(0.0, 0.0), Point2::new(0.0, 0.0)),
            (Point2::new(-290.0, -290.0), Point2::new(150.0, 130.0)),
            (Point2::new(-1000.0, 500.0), Point2::new(1000.0, 500.0)),
        ] {
            let seg = Segment2::new(a, b);
            idx.candidates_into(&seg, &mut s);
            let cands = s.last_candidates().to_vec();
            assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            let set: std::collections::HashSet<u32> = cands.iter().copied().collect();
            for (bi, bld) in w.buildings.iter().enumerate() {
                if bld.blocks_track(&seg) {
                    assert!(
                        set.contains(&(bi as u32)),
                        "building {bi} interacts but was pruned"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_discards_most_of_a_dense_world() {
        let w = grid_world(16); // 256 buildings
        let idx = WorldIndex::new(&w);
        let mut s = GeoScratch::new();
        let seg = Segment2::new(Point2::new(-310.0, 7.0), Point2::new(620.0, 11.0));
        idx.candidates_into(&seg, &mut s);
        assert!(
            s.last_candidates().len() < w.buildings.len() / 4,
            "only {} of {} pruned",
            s.last_candidates().len(),
            w.buildings.len()
        );
    }

    #[test]
    fn path_cache_counts_hits_and_misses() {
        let w = grid_world(3);
        let mut accel = GeoAccel::new(&w);
        let site = SensorSite::outdoor("s", LatLon::new(37.8716, -122.2727, 5.0));
        let mut em = origin().destination(45.0, 30_000.0);
        em.alt_m = 5_000.0;
        let a = accel.profile(&w, &site, &em, 1.09e9);
        let b = accel.profile(&w, &site, &em, 1.09e9);
        assert_eq!(a.total_loss_db().to_bits(), b.total_loss_db().to_bits());
        assert_eq!(accel.cache.hits(), 1);
        assert_eq!(accel.cache.misses(), 1);
        assert_eq!(accel.cache.len(), 1);
        assert_eq!(accel.cache.take_delta(), (1, 1));
        assert_eq!(accel.cache.take_delta(), (0, 0));
        // Different frequency is a different key.
        accel.profile(&w, &site, &em, 0.6e9);
        assert_eq!(accel.cache.misses(), 2);
    }

    #[test]
    fn scratch_epoch_dedup_survives_reuse() {
        let w = grid_world(4);
        let idx = WorldIndex::new(&w);
        let mut s = GeoScratch::new();
        let seg = Segment2::new(Point2::new(-400.0, 0.0), Point2::new(400.0, 0.0));
        idx.candidates_into(&seg, &mut s);
        let first = s.last_candidates().to_vec();
        for _ in 0..10 {
            idx.candidates_into(&seg, &mut s);
        }
        assert_eq!(s.last_candidates(), &first[..], "stable across reuse");
    }
}
