//! Criterion bench for the ADS-B PHY: frame encode, PPM round trip, CRC,
//! CPR, and the scanning decoder over a realistic multi-burst capture.

use aircal_adsb::{cpr, me::MePayload, AdsbFrame, DecodeScratch, Decoder, IcaoAddress};
use aircal_dsp::Cplx;
use aircal_sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn test_frame(icao: u32) -> AdsbFrame {
    AdsbFrame::new(
        IcaoAddress::new(icao),
        MePayload::AirbornePosition {
            altitude_ft: 35_000.0,
            cpr: cpr::encode(37.9, -122.3, cpr::CprFormat::Even),
        },
    )
}

fn bench_phy(c: &mut Criterion) {
    let frame = test_frame(0xA1B2C3);
    let bytes = frame.encode();

    c.bench_function("adsb/frame_encode", |b| b.iter(|| black_box(frame.encode())));
    c.bench_function("adsb/frame_decode", |b| {
        b.iter(|| black_box(AdsbFrame::decode(black_box(&bytes)).unwrap()))
    });
    c.bench_function("adsb/crc24", |b| {
        b.iter(|| black_box(aircal_adsb::crc::crc24(black_box(&bytes[..11]))))
    });
    c.bench_function("adsb/cpr_encode", |b| {
        b.iter(|| black_box(cpr::encode(37.9, -122.3, cpr::CprFormat::Odd)))
    });
    c.bench_function("adsb/ppm_modulate", |b| {
        b.iter(|| black_box(aircal_adsb::ppm::modulate(black_box(&bytes), 0.5, 0.2)))
    });

    // A 50 ms capture with 20 bursts at healthy SNR, decoder throughput.
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let renderer = CaptureRenderer::new(fe.clone());
    let plans: Vec<BurstPlan> = (0..20)
        .map(|i| BurstPlan {
            start_s: i as f64 * 2.5e-3,
            waveform: aircal_adsb::ppm::modulate(&test_frame(0x100 + i).encode(), 1.0, 0.0),
            rx_power_dbm: -80.0,
            phase0: i as f64,
        })
        .collect();
    let windows = renderer.render_seeded(&plans, 5, 1);
    let capture: Vec<Cplx> = windows.iter().flat_map(|w| w.samples.clone()).collect();
    let decoder = Decoder::default();
    let (mut scratch, mut msgs) = (DecodeScratch::default(), Vec::new());

    let mut group = c.benchmark_group("adsb/decoder_scan");
    group.throughput(Throughput::Elements(capture.len() as u64));
    group.bench_function("20_bursts", |b| {
        b.iter(|| {
            decoder.scan_with(black_box(&capture), 0.0, &mut scratch, &mut msgs);
            black_box(msgs.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_phy);
criterion_main!(benches);
