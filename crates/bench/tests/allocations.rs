//! The allocation gate: proves the survey hot path is allocation-free in
//! steady state and that warm scratch reproduces fresh scratch bit for
//! bit.
//!
//! The binary registers [`aircal_bench::CountingAllocator`] as the global
//! allocator; each measuring test brackets its steady-state loop with
//! [`AllocSnapshot`] reads. Single-threaded loops read the calling
//! thread's own counters, so the harness starting the next test on
//! another thread cannot leak into the window; the parallel test needs
//! the process-global counters, so all tests in this file also
//! serialize on one mutex.

use aircal_adsb::{cpr, me::MePayload, AdsbFrame, DecodeScratch, DecodedMessage, Decoder, IcaoAddress};
use aircal_bench::{AllocSnapshot, CountingAllocator};
use aircal_cellular::{paper_towers, CellScanner, CellScratch};
use aircal_dsp::psd::{welch_psd, welch_psd_into};
use aircal_dsp::window::Window;
use aircal_dsp::{derive_stream_seed, par_map_with, Cplx, DspScratch};
use aircal_env::{Scenario, ScenarioKind};
use aircal_sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig, RenderedWindow};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Serializes every test in this binary: the allocator counters are
/// process-global, so measurements must not overlap.
static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const SEED: u64 = 2023;

fn renderer() -> (CaptureRenderer, Vec<BurstPlan>) {
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let renderer = CaptureRenderer::new(fe.clone());
    let floor = fe.noise_floor_dbm();
    let plans = (0..24)
        .map(|i| {
            let frame = AdsbFrame::new(
                IcaoAddress::new(0xA00000 + (i as u32 % 8)),
                MePayload::AirbornePosition {
                    altitude_ft: 28_000.0,
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
    (renderer, plans)
}

/// Tentpole assertion: after one warm-up pass, the serial render → scan →
/// recycle burst loop performs **exactly zero** heap allocations.
#[test]
fn survey_burst_loop_is_allocation_free_after_warmup() {
    let _g = lock();
    let (renderer, plans) = renderer();
    let clusters = renderer.cluster_plans(&plans);
    let decoder = Decoder::default();
    let mut scratch = DspScratch::new();
    let mut dscratch = DecodeScratch::default();
    let mut msgs: Vec<DecodedMessage> = Vec::new();

    let round = |scratch: &mut DspScratch, dscratch: &mut DecodeScratch, msgs: &mut Vec<DecodedMessage>| {
        let mut decoded = 0usize;
        for (ci, cluster) in clusters.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(SEED, ci as u64));
            let w = renderer.render_cluster_with(&plans, cluster, &mut rng, scratch);
            decoder.scan_with(&w.samples, w.start_s, dscratch, msgs);
            decoded += msgs.len();
            w.recycle(scratch);
        }
        decoded
    };

    // Warm-up: pools fill, FFT plans build, vectors reach steady capacity.
    let warm = round(&mut scratch, &mut dscratch, &mut msgs);
    assert!(warm > 0, "warm-up round must decode something");

    let before = AllocSnapshot::this_thread();
    let decoded = round(&mut scratch, &mut dscratch, &mut msgs);
    let delta = AllocSnapshot::this_thread() - before;
    assert_eq!(decoded, warm, "steady-state rounds decode identically");
    assert_eq!(
        delta.allocs, 0,
        "steady-state burst loop allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
}

/// At parallelism 8 the only per-round allocations are the fixed costs of
/// spawning the scoped workers — the *marginal* cost per burst is zero:
/// decoding twice as many windows costs exactly the same number of
/// allocations per round.
#[test]
fn parallel_decode_marginal_allocs_per_burst_are_zero() {
    let _g = lock();
    let (renderer, plans) = renderer();
    let half: Vec<BurstPlan> = plans[..plans.len() / 2].to_vec();
    let windows_full = renderer.render_seeded(&plans, SEED, 1);
    let windows_half = renderer.render_seeded(&half, SEED, 1);
    assert!(windows_half.len() < windows_full.len());

    let decoder = Decoder::default();
    const THREADS: usize = 8;
    let mut scratches: Vec<(DecodeScratch, Vec<DecodedMessage>)> =
        (0..THREADS).map(|_| Default::default()).collect();
    let (mut slots, mut out) = (Vec::new(), Vec::new());

    let round = |windows: &[RenderedWindow],
                     scratches: &mut Vec<(DecodeScratch, Vec<DecodedMessage>)>,
                     slots: &mut Vec<Option<usize>>,
                     out: &mut Vec<usize>| {
        par_map_with(windows, THREADS, scratches, slots, out, |_, w, (ds, msgs)| {
            decoder.scan_with(&w.samples, w.start_s, ds, msgs);
            msgs.len()
        });
        out.iter().sum::<usize>()
    };

    // The atomic work queue hands windows to workers by scheduling luck,
    // so in the measured rounds *any* scratch may see *any* window. Warm
    // every worker's scratch on the full set deterministically — a cold
    // scratch growing mid-measurement would show up as a spurious,
    // timing-dependent allocation delta.
    for (ds, msgs) in scratches.iter_mut() {
        for w in &windows_full {
            decoder.scan_with(&w.samples, w.start_s, ds, msgs);
        }
    }
    // And one parallel round so slot/result staging reaches capacity.
    round(&windows_full, &mut scratches, &mut slots, &mut out);

    let before = AllocSnapshot::now();
    let full = round(&windows_full, &mut scratches, &mut slots, &mut out);
    let mid = AllocSnapshot::now();
    let half_decoded = round(&windows_half, &mut scratches, &mut slots, &mut out);
    let after = AllocSnapshot::now();

    assert!(full > half_decoded, "more windows decode more messages");
    let full_round = mid - before;
    let half_round = after - mid;
    assert_eq!(
        full_round.allocs, half_round.allocs,
        "per-round allocations must not scale with burst count \
         ({} windows: {} allocs, {} windows: {} allocs)",
        windows_full.len(),
        full_round.allocs,
        windows_half.len(),
        half_round.allocs
    );
}

/// `scan_with` on one warm scratch reused across windows must decode
/// exactly what a fresh scratch per window decodes.
#[test]
fn scan_with_warm_scratch_matches_fresh_scratch() {
    let _g = lock();
    let (renderer, plans) = renderer();
    let windows = renderer.render_seeded(&plans, SEED, 1);
    let decoder = Decoder::default();
    let mut scratch = DecodeScratch::default();
    let (mut reference, mut out) = (Vec::new(), Vec::new());
    for w in &windows {
        decoder.scan_with(&w.samples, w.start_s, &mut DecodeScratch::default(), &mut reference);
        decoder.scan_with(&w.samples, w.start_s, &mut scratch, &mut out);
        assert_eq!(reference, out);
    }
}

/// The pooled render path (manual cluster loop with recycling) must be
/// bit-identical to `render_seeded` at every thread count.
#[test]
fn pooled_render_matches_render_seeded_bit_identically() {
    let _g = lock();
    let (renderer, plans) = renderer();
    let clusters = renderer.cluster_plans(&plans);
    let mut scratch = DspScratch::new();
    for _ in 0..2 {
        // Two rounds: the second runs entirely from recycled buffers.
        let mut pooled = Vec::new();
        for (ci, cluster) in clusters.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(SEED, ci as u64));
            pooled.push(renderer.render_cluster_with(&plans, cluster, &mut rng, &mut scratch));
        }
        for threads in [1usize, 8] {
            let reference = renderer.render_seeded(&plans, SEED, threads);
            assert_eq!(reference.len(), pooled.len());
            for (a, b) in reference.iter().zip(&pooled) {
                assert_eq!(a.start_s, b.start_s);
                assert_eq!(a.samples, b.samples);
            }
        }
        for w in pooled {
            w.recycle(&mut scratch);
        }
    }
}

/// Cellular: `scan_with` rewrites warm measurement slots (name strings
/// included) through a warm geometry accelerator — bit-identical to
/// `scan`, and the steady-state sweep performs zero allocations.
#[test]
fn cellular_scan_with_matches_scan_and_stops_allocating() {
    let _g = lock();
    let s = Scenario::build(ScenarioKind::Rooftop);
    let db = paper_towers(&s.world.origin);
    let scanner = CellScanner::default();
    let mut accel = s.world.accel();
    let mut scratch = CellScratch::default();
    let mut out = Vec::new();
    for seed in [1u64, SEED] {
        let reference = scanner.scan(&s.world, &s.site, &db, seed);
        scanner.scan_with(&s.world, &mut accel, &s.site, &db, seed, &mut scratch, &mut out);
        assert_eq!(reference, out);
    }

    let reference = scanner.scan(&s.world, &s.site, &db, SEED);
    let before = AllocSnapshot::this_thread();
    scanner.scan_with(&s.world, &mut accel, &s.site, &db, SEED, &mut scratch, &mut out);
    let delta = AllocSnapshot::this_thread() - before;
    assert_eq!(reference, out);
    assert_eq!(
        delta.allocs, 0,
        "warm cellular scan_with allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
}

/// Geometry: after one warm-up sweep, an indexed obstruction sweep with
/// warm scratch buffers is allocation-free, and a memoized sweep over
/// static emitters is allocation-free too (pure hash lookups).
#[test]
fn geometry_sweeps_are_allocation_free_after_warmup() {
    let _g = lock();
    let dense = aircal_env::scenarios::dense_city(8);
    let index = dense.world.index();
    let mut scratch = aircal_env::GeoScratch::new();
    let mut cache = aircal_env::PathCache::new();
    let mut out = Vec::new();
    let rays = 72;

    // Warm-up: scratch buffers size themselves, the memo fills.
    dense.world.obstruction_profile_with(
        &index, None, &dense.site, 1.09e9, 2.0, 50_000.0, rays, &mut scratch, &mut out,
    );
    dense.world.obstruction_profile_with(
        &index,
        Some(&mut cache),
        &dense.site,
        1.09e9,
        2.0,
        50_000.0,
        rays,
        &mut scratch,
        &mut out,
    );

    let before = AllocSnapshot::this_thread();
    dense.world.obstruction_profile_with(
        &index, None, &dense.site, 1.09e9, 2.0, 50_000.0, rays, &mut scratch, &mut out,
    );
    let mid = AllocSnapshot::this_thread();
    dense.world.obstruction_profile_with(
        &index,
        Some(&mut cache),
        &dense.site,
        1.09e9,
        2.0,
        50_000.0,
        rays,
        &mut scratch,
        &mut out,
    );
    let after = AllocSnapshot::this_thread();

    let indexed = mid - before;
    let cached = after - mid;
    assert_eq!(
        indexed.allocs, 0,
        "warm indexed sweep allocated {} times ({} bytes)",
        indexed.allocs, indexed.bytes
    );
    assert_eq!(
        cached.allocs, 0,
        "warm memoized sweep allocated {} times ({} bytes)",
        cached.allocs, cached.bytes
    );
    assert_eq!(cache.misses(), rays as u64, "second memo sweep must be all hits");
}

/// `welch_psd_into` with a reused scratch matches the allocating
/// `welch_psd`, and the second call runs allocation-free.
#[test]
fn welch_psd_into_matches_and_stops_allocating() {
    let _g = lock();
    let samples: Vec<Cplx> = (0..4_096)
        .map(|i| Cplx::phasor(0.21 * i as f64) * (1.0 + 0.1 * (i as f64 * 0.01).sin()))
        .collect();
    let reference = welch_psd(&samples, 256, 0.5, Window::Hann).unwrap();
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    welch_psd_into(&samples, 256, 0.5, Window::Hann, &mut scratch, &mut out).unwrap();
    assert_eq!(reference, out);

    let before = AllocSnapshot::this_thread();
    welch_psd_into(&samples, 256, 0.5, Window::Hann, &mut scratch, &mut out).unwrap();
    let delta = AllocSnapshot::this_thread() - before;
    assert_eq!(reference, out);
    assert_eq!(delta.allocs, 0, "warm welch_psd_into allocated {}", delta.allocs);
}
