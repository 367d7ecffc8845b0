//! Fault injection: show that the calibration pipeline catches the
//! installation problems the paper lists — "the efficiency of the antenna
//! and the sensitivity of the SDR in the desired spectrum bands, potential
//! obstruction of the antenna …, installation issues such as damaged
//! antenna cables" — and fabricated data. Then repeat the exercise one
//! layer down: the *network* fails (burst outages, crashed daemons,
//! wedged threads, garbled frames) and the audit degrades instead of
//! aborting.
//!
//! ```sh
//! cargo run --release --example fault_injection [seed] [--trace]
//! ```
//!
//! `--trace` additionally records the cloud's structured audit log and
//! prints it as JSON lines — the replayable record of why each node
//! ended up degraded or quarantined.

use aircal::net::{
    spawn_node_with_faults, BurstOutage, Cloud, LinkFaults, NodeAgent, NodeBehavior, RetryPolicy,
};
use aircal::obs::{fmt, Obs};
use aircal::prelude::*;
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_core::fov::FovEstimator;
use aircal_core::freqprofile::FrequencyProfiler;
use aircal_core::trust::{fabricate_survey, TrustAuditor};
use aircal_sdr::FrontendFault;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let traced = args.iter().any(|a| a == "--trace");
    let seed: u64 = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);

    let scenario = Scenario::build(ScenarioKind::OpenField);
    let traffic = TrafficSim::generate(
        TrafficConfig {
            count: 50,
            ..TrafficConfig::paper_default(scenario.site.position)
        },
        seed,
    );
    let cells = aircal_cellular::paper_towers(&scenario.world.origin);
    let tv = aircal_tv::paper_tv_towers(&scenario.world.origin);
    let index = scenario.world.index();
    let profile = FrequencyProfiler::default().profile(
        &scenario.world,
        &mut scenario.world.accel(),
        &scenario.site,
        &cells,
        &tv,
        seed,
    );

    let faults: [(&str, FrontendFault); 4] = [
        ("healthy", FrontendFault::None),
        ("8 dB cable loss", FrontendFault::CableLoss { db: 8.0 }),
        (
            "deaf above 900 MHz",
            FrontendFault::DeafAbove {
                cutoff_hz: 900e6,
                loss_db: 40.0,
            },
        ),
        ("dead front end", FrontendFault::Dead),
    ];

    println!("{}", fmt::section("front-end faults"));
    let mut table = front_end_table();
    for (label, fault) in faults {
        let cfg = SurveyConfig {
            fault,
            ..SurveyConfig::quick()
        };
        let survey = run_survey(&scenario.world, &index, &scenario.site, &traffic, &cfg, seed);
        let fov = FovEstimator::default().estimate(&survey.points);
        let trust =
            TrustAuditor::default().audit(&survey, &profile, &traffic, fov.open_fraction());
        push_row(&mut table, label, &survey, trust.score, &trust.flags);
    }

    // The cheater: an operator who claims to have heard everything.
    let honest = run_survey(
        &scenario.world,
        &index,
        &scenario.site,
        &traffic,
        &SurveyConfig::quick(),
        seed,
    );
    let fake = fabricate_survey(&honest, honest.total_messages / 12);
    let fov = FovEstimator::default().estimate(&fake.points);
    let trust = TrustAuditor::default().audit(&fake, &profile, &traffic, fov.open_fraction());
    push_row(&mut table, "fabricated data", &fake, trust.score, &trust.flags);
    println!("{}", table.render());

    network_chaos(seed, traced);
}

/// The same story one layer down: faults in the node⇄cloud link instead
/// of the RF front end. Audits degrade to partial verdicts, repeated
/// failures quarantine a node, and a clean audit re-admits it.
fn network_chaos(seed: u64, traced: bool) {
    println!("\n{}\n", fmt::section("network chaos: same fleet, faulty links"));
    let sky = Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(aircal_env::scenarios::testbed_origin())
        },
        seed,
    ));
    let mut cloud = Cloud::new(sky.clone());
    if traced {
        cloud.obs = Obs::recording();
    }
    cloud.retry_policy = RetryPolicy::quick();
    cloud.retry_policy.budgets.tv = Duration::from_secs(1);

    // Registration is node-side request 0 and wire attempt 0; each audit
    // is 4 more of each (plus retries on the wire side).
    let roster: [(&str, LinkFaults); 4] = [
        ("clean-link", LinkFaults::none()),
        (
            // Wire attempts 2–3 (the first audit's survey) are swallowed
            // by an outage; the retries ride it out.
            "burst-outage",
            LinkFaults {
                burst_outages: vec![BurstOutage { start: 2, len: 2 }],
                ..LinkFaults::none()
            },
        ),
        (
            // The host daemon dies mid-audit and stays dead: partial
            // verdict in round 1, unreachable after, quarantined.
            "crashed-daemon",
            LinkFaults {
                crash_after: Some(3),
                ..LinkFaults::none()
            },
        ),
        (
            // Wedges on every tv attempt of audit 1 (node-side requests
            // 4–6), then behaves: degraded, then re-admitted.
            "wedged-then-ok",
            LinkFaults {
                hang_on: vec![4, 5, 6],
                ..LinkFaults::none()
            },
        ),
    ];
    for (i, (name, faults)) in roster.into_iter().enumerate() {
        let mut agent = NodeAgent::new(
            Scenario::build(ScenarioKind::OpenField),
            NodeBehavior::Honest,
            sky.clone(),
        );
        agent.claims.name = name.to_string();
        cloud
            .register(spawn_node_with_faults(agent, faults, seed + i as u64))
            .expect("all daemons alive at registration");
    }

    for round in 1u64..=3 {
        let verdicts = cloud.audit_all(seed ^ (0xC0A5 + round));
        println!("{}", fmt::section(&format!("audit round {round}")));
        let mut table = fmt::Table::new(&["node", "outcome", "health"]);
        let health = cloud.health_report();
        for ((name, verdict), (_, state, fails)) in verdicts.iter().zip(&health) {
            let outcome = match verdict {
                None => "unreachable".to_string(),
                Some(v) if v.is_complete() => format!("complete, trust {:.0}", v.trust.score),
                Some(v) => format!(
                    "partial (lost: {}), trust {:.0}",
                    v.failed_steps
                        .iter()
                        .map(|f| f.step.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    v.trust.score
                ),
            };
            table.row(&[
                name.clone(),
                outcome,
                format!("{state} ({fails} consecutive)"),
            ]);
        }
        println!("{}", table.render());
    }

    println!("\n{}", fmt::section("wire counters"));
    let mut table = fmt::Table::new(&[
        "node", "attempts", "ok", "retries", "dropped", "timeout", "sendfail", "gaveup",
    ]);
    for (name, s) in cloud.link_stats() {
        table.row(&[
            name,
            s.attempts.to_string(),
            s.ok.to_string(),
            s.retries.to_string(),
            s.dropped.to_string(),
            s.timeouts.to_string(),
            s.send_failed.to_string(),
            s.gave_up.to_string(),
        ]);
    }
    println!("{}", table.render());

    if traced {
        println!("\n{}", fmt::section("audit event log (JSON lines)"));
        print!("{}", cloud.obs.events_jsonl());
        println!("\n{}", fmt::section("metrics"));
        for line in fmt::counter_lines(&cloud.obs.snapshot()) {
            println!("{line}");
        }
    }
    cloud.shutdown();
}

fn front_end_table() -> fmt::Table {
    fmt::Table::new(&["condition", "observed", "messages", "maxrange", "trust", "flags"])
}

fn push_row(table: &mut fmt::Table, label: &str, survey: &SurveyResult, trust: f64, flags: &[String]) {
    table.row(&[
        label.to_string(),
        format!("{:.0}%", survey.observation_rate() * 100.0),
        survey.total_messages.to_string(),
        format!("{:.0} km", survey.max_observed_range_m() / 1_000.0),
        format!("{trust:.0}"),
        if flags.is_empty() {
            "-".to_string()
        } else {
            flags.join("; ")
        },
    ]);
}
