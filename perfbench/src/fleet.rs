//! The `fleet_campaign` workload: repeated `aircal_sim::run` campaigns
//! under the recovery drill's fault schedule, each checked against the
//! fault-free twin computed during set-up.

use crate::checks;
use crate::clock::{timed, Elapsed, Stamp};
use crate::spans::SpanTree;
use crate::stats;
use crate::Outcome;
use aircal::obs::{trace, Obs};
use aircal::sim::{run as run_campaign, run_with_obs, CampaignConfig, CampaignResult};
use std::collections::BTreeMap;

/// Fleet size: a 30 s run holds well over 50 campaigns, and the fleet is
/// large enough that the seed-dependent part of the peak heap (a few
/// hundred KiB, depending on which nodes draw which faults) stays a few
/// per cent of it.
const NODES: usize = 3000;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// `CampaignConfig::paper_default` on one worker under the recovery
/// drill: a cloud crash every 120 ticks, 30 % duplicate and 30 %
/// reorder fractions.
fn drill(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::paper_default(NODES, seed);
    cfg.workers = 1;
    cfg.recovery.crash_ticks = (1..cfg.max_ticks / 120).map(|i| i * 120).collect();
    cfg.recovery.duplicate_fraction = 0.3;
    cfg.recovery.reorder_fraction = 0.3;
    cfg
}

pub fn run(seed: u64, seconds: f64, trace_run: bool) -> Outcome {
    let cfg = drill(seed);
    let mut twin_cfg = CampaignConfig::paper_default(NODES, seed);
    twin_cfg.workers = 1;

    let mut setup = Vec::new();
    let mut errors = Vec::new();
    let mut twin_digest: Option<String> = None;
    for _ in 0..SETUP_REPS {
        let (twin, t) = timed(|| run_campaign(&twin_cfg));
        setup.push(t);
        let first = twin_digest.get_or_insert_with(|| twin.state_digest.clone());
        if let Err(e) =
            checks::same_digest("fault-free twin across set-ups", first, &twin.state_digest)
        {
            errors.push(e);
        }
    }
    let twin_digest = twin_digest.expect("at least one set-up");

    let mut spans = SpanTree::new();
    let min_ops = stats::min_samples_for(crate::TAIL_PERCENTILE);
    let (mut ops, mut traced_ops) = (Vec::<Elapsed>::new(), Vec::<Elapsed>::new());
    let (mut attempted, mut failed, mut events) = (0u64, 0u64, 0u64);
    let start = Stamp::now();
    let r: CampaignResult = loop {
        let traced = trace_run && attempted % 2 == 0;
        let t0 = Stamp::now();
        let result = if traced {
            trace::enable();
            let (r, _) = spans.scope("sim.campaign", None, Some(attempted), || {
                run_with_obs(&cfg, &Obs::recording())
            });
            trace::disable();
            trace::drain();
            r
        } else {
            run_campaign(&cfg)
        };
        let took = t0.elapsed();
        attempted += 1;
        if let Err(e) = checks::campaign_matches_twin(&result, &twin_digest) {
            errors.push(e);
            failed += 1;
        }
        if traced {
            traced_ops.push(took);
        } else {
            ops.push(took);
            events += result.events;
        }
        let enough = if trace_run {
            !ops.is_empty() && !traced_ops.is_empty()
        } else {
            ops.len() >= min_ops
        };
        if enough && start.elapsed().wall_s + took.wall_s > seconds {
            break result;
        }
    };
    let loop_time = start.elapsed();
    let layers = if trace_run {
        let mut m = BTreeMap::new();
        m.insert("sim.events", r.events as f64);
        m.insert("sim.completed_tasks", r.completed_tasks as f64);
        m.insert("sim.wal_appends", r.wal_appends as f64);
        m.insert("sim.replayed_records", r.replayed_records as f64);
        m.insert("sim.recoveries", r.recoveries as f64);
        m.insert("sim.deduped_reports", r.deduped_reports as f64);
        m.insert("sim.backlogged_reports", r.backlogged_reports as f64);
        m.insert(
            "obs.trace_overhead_frac",
            crate::overhead(&ops, &traced_ops),
        );
        m
    } else {
        BTreeMap::new()
    };
    Outcome {
        op: "campaign",
        work: "sim events",
        setup,
        ops,
        traced_ops,
        loop_time,
        work_items: events,
        attempted,
        unfinished: failed,
        failed,
        errors,
        layers,
        spans,
    }
}
