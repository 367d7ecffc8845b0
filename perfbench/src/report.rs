//! Metric catalogs and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit
//! and meaning; `BENCHMARK.json` lists the same names (a test keeps the
//! two in step). A workload that does not exercise a per-layer metric
//! reports it as 0, so every traced run prints the whole catalog.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub help: &'static str,
}

const fn m(name: &'static str, unit: &'static str, help: &'static str) -> MetricDef {
    MetricDef { name, unit, help }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "median process-CPU seconds of one set-up (of 1001 per audit run, 5 per campaign run)"),
    m(
        "throughput_per_cpu_s",
        "1/s",
        "audits attempted (audit workloads) or campaign events applied (fleet_campaign) per process-CPU second of the measured loop",
    ),
    m("op_cpu_s_p50", "s", "median process-CPU seconds of one audit_all round or one campaign"),
    m("op_cpu_s_p80", "s", "80th percentile of the same (at least 10 samples beyond it)"),
    m("peak_heap_mb", "MiB", "peak live heap of the benchmark process (set-up included)"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "net.node.describe_s",
        "s",
        "CPU self-time of the replayed Describe, per audit",
    ),
    m(
        "net.node.survey_s",
        "s",
        "CPU self-time of the replayed ADS-B survey, per audit",
    ),
    m(
        "net.node.cells_s",
        "s",
        "CPU self-time of the replayed cell scan, per audit",
    ),
    m(
        "net.node.tv_s",
        "s",
        "CPU self-time of the replayed TV sweep, per audit",
    ),
    m(
        "net.cloud.judge_s",
        "s",
        "CPU self-time of Cloud::judge minus its clear-sky expectation, per audit",
    ),
    m(
        "net.cloud.expectation_s",
        "s",
        "CPU time of the clear-sky cell scan and TV sweep on World::open, per audit",
    ),
    m(
        "net.cloud.unattributed_frac",
        "ratio",
        "share of round CPU time outside every layer span",
    ),
    m(
        "core.robust.fuse_s",
        "s",
        "CPU time of fuse_profiles over a round's complete profiles, per round",
    ),
    m("net.cloud.recover_s", "s", "CPU time of one Cloud::recover"),
    m(
        "sdr.render_s",
        "s",
        "wall total of render_windows spans, per replayed audit",
    ),
    m(
        "core.survey.plan_s",
        "s",
        "wall total of burst_planning spans, per replayed audit",
    ),
    m(
        "core.survey.decode_s",
        "s",
        "wall total of decode_windows spans, per replayed audit",
    ),
    m(
        "adsb.preamble_scan_s",
        "s",
        "wall total of preamble_scan spans, per replayed audit",
    ),
    m(
        "core.survey.cpr_s",
        "s",
        "wall total of cpr_decode spans, per replayed audit",
    ),
    m(
        "tv.channel_s",
        "s",
        "wall total of tv_channel spans, per replayed audit",
    ),
    m(
        "dsp.band_power_s",
        "s",
        "wall total of band_power spans, per replayed audit",
    ),
    m(
        "env.scenario_build_s",
        "s",
        "median CPU seconds of Scenario::build for the fleet, per set-up",
    ),
    m(
        "aircraft.sky_s",
        "s",
        "median CPU seconds of TrafficSim::generate, per set-up",
    ),
    m(
        "net.node.spawn_s",
        "s",
        "median CPU seconds of node spawn and registration, per set-up",
    ),
    m(
        "net.link.attempts_per_audit",
        "count",
        "wire attempts per audit attempted (registration included)",
    ),
    m(
        "net.link.retries_per_audit",
        "count",
        "retries per audit attempted",
    ),
    m(
        "net.link.retried_frac",
        "ratio",
        "successful calls that needed a retry, over successful calls",
    ),
    m(
        "net.link.gave_up",
        "count",
        "calls that exhausted their retries, per cycle",
    ),
    m(
        "net.link.stale_drained",
        "count",
        "stale replies drained by the dedup window, per cycle",
    ),
    m(
        "net.link.timeouts",
        "count",
        "attempts that timed out, per cycle",
    ),
    m(
        "net.cloud.wal_appends_per_round",
        "count",
        "journal appends per audit_all round",
    ),
    m(
        "net.cloud.evicted_nodes",
        "count",
        "nodes evicted at the end of a cycle",
    ),
    m(
        "core.survey.messages_per_audit",
        "count",
        "decoded ADS-B messages per replayed survey",
    ),
    m(
        "core.survey.skipped_low_snr_per_audit",
        "count",
        "bursts skipped below the SNR floor per replayed survey",
    ),
    m("sim.events", "count", "events applied per campaign"),
    m(
        "sim.completed_tasks",
        "count",
        "measurement tasks completed per campaign",
    ),
    m("sim.wal_appends", "count", "journal appends per campaign"),
    m(
        "sim.replayed_records",
        "count",
        "journal records replayed per campaign",
    ),
    m(
        "sim.recoveries",
        "count",
        "cloud crash recoveries per campaign",
    ),
    m(
        "sim.deduped_reports",
        "count",
        "re-deliveries dropped by the dedup guard per campaign",
    ),
    m(
        "sim.backlogged_reports",
        "count",
        "reports deferred by downtime per campaign",
    ),
    m(
        "obs.trace_overhead_frac",
        "ratio",
        "traced op_cpu_s_p50 over untraced op_cpu_s_p50, minus 1",
    ),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// The last line of standard output.
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl ResultLine {
    /// Render as one JSON object; every value must be finite and every
    /// name declared.
    pub fn to_json(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = unit_of(name).ok_or_else(|| format!("undeclared metric {name}"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// The usage text plus every metric with its unit and meaning.
pub fn catalog_text() -> String {
    let mut s = String::new();
    for (title, defs) in [
        ("end-to-end (--trace 0)", END_TO_END),
        ("per-layer (--trace 1)", PER_LAYER),
    ] {
        writeln!(s, "\n{title}:").expect("write to String");
        for d in defs {
            writeln!(s, "  {:<40} {:<6} {}", d.name, d.unit, d.help).expect("write to String");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    fn valid_name(name: &str) -> bool {
        let b = name.as_bytes();
        !b.is_empty()
            && b.len() <= 64
            && b[0].is_ascii_alphanumeric()
            && b.iter()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    /// At most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} for {}", d.unit, d.name);
            assert!(!d.help.is_empty());
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(!valid_name("net.cloud judge"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = text.matches("\"name\":").count();
        let workloads = crate::cli::Workload::ALL.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", 0.25);
        metrics.insert("peak_heap_mb", 12.0);
        let line = ResultLine {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        assert_eq!(
            line.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"peak_heap_mb\": {\"value\": 12.0, \"unit\": \"MiB\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let mut bad = BTreeMap::new();
        bad.insert("setup_s", f64::NAN);
        assert!(ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: bad
        }
        .to_json()
        .is_err());
        let mut undeclared = BTreeMap::new();
        undeclared.insert("made.up", 1.0);
        assert!(ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: undeclared
        }
        .to_json()
        .is_err());
    }
}
