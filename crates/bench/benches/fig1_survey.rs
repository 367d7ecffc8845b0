//! Criterion bench for the Figure 1 pipeline: the full directional survey
//! (traffic → channel → burst IQ → decode → match) per scenario.

use aircal_bench::paper_traffic;
use aircal_core::survey::{run_survey, SurveyConfig};
use aircal_env::{Scenario, ScenarioKind};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_survey(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_survey");
    group.sample_size(10);
    for kind in [
        ScenarioKind::Rooftop,
        ScenarioKind::BehindWindow,
        ScenarioKind::Indoor,
    ] {
        let scenario = Scenario::build(kind);
        let traffic = paper_traffic(&scenario, 1);
        let index = scenario.world.index();
        let cfg = SurveyConfig::quick();
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                black_box(run_survey(
                    &scenario.world,
                    &index,
                    &scenario.site,
                    &traffic,
                    &cfg,
                    black_box(1),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_survey);
criterion_main!(benches);
