//! The two audit workloads: `audit_honest` and `audit_hostile`.
//!
//! Both drive the real threaded deployment: one [`NodeAgent`] per node on
//! its own service thread behind a [`Link`](aircal::net::Link), and one
//! [`Cloud`] calling [`Cloud::audit_all`] from this (the only client)
//! thread, closed loop. Work is organised in identical *cycles* — fresh
//! nodes and a fresh cloud, then a fixed sequence of rounds with base
//! seeds `seed + round` — so the fault, retry and eviction mix of a run
//! does not drift with its length, and per-cycle counts repeat exactly.

use crate::checks::{self, CheckError};
use crate::clock::{timed, Elapsed, Stamp};
use crate::spans::{SpanId, SpanTree};
use crate::stats;
use crate::Outcome;
use aircal::aircraft::{TrafficConfig, TrafficSim};
use aircal::cellular::{paper_towers, CellMeasurement, CellScanner};
use aircal::core::robust::fuse_profiles;
use aircal::core::survey::SurveyResult;
use aircal::dsp::derive_stream_seed;
use aircal::env::{scenarios::testbed_origin, Scenario, ScenarioKind, SensorSite, World};
use aircal::net::{
    spawn_node_with_faults, AdversaryKind, Cloud, LinkFaults, LinkStats, NodeAgent, NodeBehavior,
    NodeHealth, Request, Response, RetryPolicy, VerificationVerdict,
};
use aircal::obs::{trace, Obs};
use aircal::tv::{paper_tv_towers, TvMeasurement, TvPowerProbe};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Set-ups timed per run; `setup_s` is their median. One set-up takes
/// 0.1-0.5 ms of CPU, most of it spawning node threads and the
/// registration round trip, whose cost depends on where the scheduler
/// puts those threads. Back to back on a 2-vCPU guest, the median of 41
/// moved by up to 26 % between runs and the median of 1001 (about 0.3 s
/// of set-up) by 2 % (`audit_honest`) to 15 % (`audit_hostile`).
const SETUP_REPS: usize = 1001;

/// The sky every node hears. Fixed, like the scenarios: the workload
/// seed varies the commissioned captures and the link faults, not the
/// traffic density, so seeds compare like with like.
const SKY_SEED: u64 = 4242;

/// Seed stride between nodes in one round (as in `Cloud::audit_all`).
const NODE_SEED_STRIDE: u64 = 0x9E37_79B9;

/// One node of a workload's fleet.
struct NodeSpec {
    name: &'static str,
    kind: ScenarioKind,
    adversary: Option<AdversaryKind>,
    faults: LinkFaults,
    link_seed: u64,
    adversary_seed: u64,
}

/// A workload: its fleet and the shape of one cycle.
struct Plan {
    nodes: Vec<NodeSpec>,
    /// Rounds before the cloud crash (all rounds when there is none).
    rounds_before_crash: u64,
    /// Rounds after `Cloud::crash` + `Cloud::recover`; `None` = no crash.
    rounds_after_crash: Option<u64>,
}

impl Plan {
    fn adversaries(&self) -> Vec<&'static str> {
        self.nodes
            .iter()
            .filter(|n| n.adversary.is_some())
            .map(|n| n.name)
            .collect()
    }

    fn honest(&self) -> Vec<&'static str> {
        self.nodes
            .iter()
            .filter(|n| n.adversary.is_none())
            .map(|n| n.name)
            .collect()
    }
}

fn node(name: &'static str, kind: ScenarioKind, seed: u64, index: u64) -> NodeSpec {
    NodeSpec {
        name,
        kind,
        adversary: None,
        faults: LinkFaults::none(),
        link_seed: derive_stream_seed(seed, index),
        adversary_seed: derive_stream_seed(seed, 100 + index),
    }
}

/// The paper's three locations, honest, on clean links.
fn honest_plan(seed: u64) -> Plan {
    Plan {
        nodes: vec![
            node("h-rooftop", ScenarioKind::Rooftop, seed, 0),
            node("h-window", ScenarioKind::BehindWindow, seed, 1),
            node("h-indoor", ScenarioKind::Indoor, seed, 2),
        ],
        rounds_before_crash: 8,
        rounds_after_crash: None,
    }
}

/// The same locations plus a stale-replay and a gain-inflating
/// adversary, on links with seeded drops, corrupt/duplicate/reorder
/// frames and one node daemon crash; the cloud crashes and recovers
/// mid-cycle. No hang or latency faults: those are wall-clock timeouts
/// and sleeps, which would time the timer, not the program. The seeded
/// drop rates are low and the expensive faults (corrupt, reorder:
/// the node's work is redone) are scheduled, so the retry work per
/// cycle varies little from seed to seed.
fn hostile_plan(seed: u64) -> Plan {
    // Adversaries reach eviction in rounds 4-5; with 9 rounds after the
    // crash, a cycle's median round is a three-node round and its 80th
    // percentile a five-node one, each well inside its plateau.
    const BEFORE: u64 = 4;
    const AFTER: u64 = 9;
    let mut rooftop = node("h-rooftop", ScenarioKind::Rooftop, seed, 0);
    rooftop.faults = LinkFaults {
        request_drop: 0.02,
        response_drop: 0.02,
        duplicate_on: vec![5, 17],
        reorder_on: vec![9],
        ..LinkFaults::none()
    };
    let mut window = node("h-window", ScenarioKind::BehindWindow, seed, 1);
    window.faults = LinkFaults {
        request_drop: 0.02,
        corrupt_on: vec![6, 21],
        ..LinkFaults::none()
    };
    // A clean link serves exactly one Describe at registration and four
    // requests per audit, so this daemon dies on the Describe of the
    // cycle's last round: one unreachable audit, Degraded, never
    // quarantined.
    let mut indoor = node("h-indoor", ScenarioKind::Indoor, seed, 2);
    indoor.faults.crash_after = Some(1 + 4 * (BEFORE + AFTER - 1));
    let mut replay = node("adv-replay", ScenarioKind::BehindWindow, seed, 3);
    replay.adversary = Some(AdversaryKind::ReplayStale);
    replay.faults = LinkFaults {
        response_drop: 0.02,
        duplicate_on: vec![3],
        ..LinkFaults::none()
    };
    let mut gain = node("adv-gain", ScenarioKind::Rooftop, seed, 4);
    gain.adversary = Some(AdversaryKind::GainInflate { db: 25.0 });
    gain.faults = LinkFaults {
        request_drop: 0.02,
        reorder_on: vec![7],
        ..LinkFaults::none()
    };
    Plan {
        nodes: vec![rooftop, window, indoor, replay, gain],
        rounds_before_crash: BEFORE,
        rounds_after_crash: Some(AFTER),
    }
}

/// What set-up builds once and every cycle reuses.
struct World0 {
    scenarios: Vec<Scenario>,
    sky: Arc<TrafficSim>,
}

fn build_agent(spec: &NodeSpec, scenario: &Scenario, sky: &Arc<TrafficSim>) -> NodeAgent {
    let mut agent = match spec.adversary {
        Some(kind) => {
            NodeAgent::with_adversary(scenario.clone(), sky.clone(), kind, spec.adversary_seed)
        }
        None => NodeAgent::new(scenario.clone(), NodeBehavior::Honest, sky.clone()),
    };
    agent.claims.name = spec.name.to_string();
    agent
}

/// The cloud's telemetry: recording in traced cycles, off otherwise.
fn telemetry(traced: bool) -> Obs {
    if traced {
        Obs::recording()
    } else {
        Obs::disabled()
    }
}

/// Fresh nodes, spawned and registered with a fresh cloud.
fn spawn_fleet(plan: &Plan, w: &World0, obs: Obs) -> Cloud {
    let mut cloud = Cloud::new(w.sky.clone());
    cloud.retry_policy = RetryPolicy::quick();
    cloud.obs = obs;
    for (spec, scenario) in plan.nodes.iter().zip(&w.scenarios) {
        let link = spawn_node_with_faults(
            build_agent(spec, scenario, &w.sky),
            spec.faults.clone(),
            spec.link_seed,
        );
        let name = cloud
            .register(link)
            .expect("clean registration: attempt 0 carries no fault");
        assert_eq!(name, spec.name);
    }
    cloud
}

/// Per-cycle tallies.
#[derive(Default)]
struct Tally {
    rounds: u64,
    attempted: u64,
    incomplete: u64,
    wal_appends: u64,
    link: LinkStats,
    evicted: u64,
    recover_cpu_s: Vec<f64>,
}

impl Tally {
    fn add_link(&mut self, stats: &[(String, LinkStats)]) {
        for (_, s) in stats {
            self.link.attempts += s.attempts;
            self.link.retries += s.retries;
            self.link.gave_up += s.gave_up;
            self.link.timeouts += s.timeouts;
            self.link.stale_drained += s.stale_drained;
            self.link.first_try_ok += s.first_try_ok;
            self.link.retried_ok += s.retried_ok;
        }
    }
}

/// What the traced replay accumulates.
#[derive(Default)]
struct Replay {
    audits: u64,
    rounds: u64,
    messages: u64,
    skipped_low_snr: u64,
    surveys: u64,
    /// Wall totals of the program's own `aircal_obs` spans, by name.
    program_wall_s: BTreeMap<String, f64>,
}

/// One cycle's fresh replay agents, by node name.
type Agents = BTreeMap<&'static str, NodeAgent>;

struct Runner {
    seed: u64,
    plan: Plan,
    world: World0,
    tally: Tally,
    replay: Replay,
    spans: SpanTree,
    errors: Vec<CheckError>,
    /// End-of-cycle registry digest of the first cycle.
    first_digest: Option<u64>,
    next_audit_id: u64,
}

impl Runner {
    /// One round: `audit_all`, then (traced) the replay.
    fn round(&mut self, cloud: &Cloud, base: u64, agents: Option<&Agents>) -> Elapsed {
        let before = cloud.health_report();
        let attempted = before
            .iter()
            .filter(|(_, h, _)| *h != NodeHealth::Evicted)
            .count() as u64;
        let wal0 = cloud.journal_stats().0;
        let traced = agents.is_some();
        let span = traced.then(|| {
            trace::enable();
            self.spans.open("round", None, None)
        });
        let t0 = Stamp::now();
        let out = cloud.audit_all(base);
        let took = t0.elapsed();
        if let Some(id) = span {
            self.spans.close(id);
            trace::disable();
            // The live round's program spans interleave node threads;
            // only the replay's are attributed.
            trace::drain();
        }
        self.tally.rounds += 1;
        self.tally.attempted += attempted;
        self.tally.wal_appends += cloud.journal_stats().0 - wal0;
        let skipped: Vec<&str> = before
            .iter()
            .filter(|(_, h, _)| *h == NodeHealth::Evicted)
            .map(|(n, _, _)| n.as_str())
            .collect();
        self.tally.incomplete += out
            .iter()
            .filter(|(n, v)| {
                !skipped.contains(&n.as_str())
                    && !v.as_ref().is_some_and(VerificationVerdict::is_complete)
            })
            .count() as u64;
        if self.plan.adversaries().is_empty() {
            if let Err(e) = checks::all_complete(&out) {
                self.errors.push(e);
            }
        }
        if let Err(e) = checks::honest_not_quarantined(
            &cloud.health_report(),
            &cloud.anomaly_report(),
            &self.plan.honest(),
            base,
        ) {
            self.errors.push(e);
        }
        if let (Some(agents), Some(round_span)) = (agents, span) {
            self.replay_round(cloud, base, &out, agents, round_span);
        }
        took
    }

    /// Re-run each audited node's requests on the cycle's replay agents
    /// through `NodeAgent::handle`, with the seeds `audit_all` derived,
    /// then `Cloud::judge` on the replies; time each call.
    fn replay_round(
        &mut self,
        cloud: &Cloud,
        base: u64,
        out: &[(String, Option<VerificationVerdict>)],
        agents: &Agents,
        round: SpanId,
    ) {
        trace::enable();
        let spans = &mut self.spans;
        for (i, (name, verdict)) in out.iter().enumerate() {
            let Some(verdict) = verdict else { continue };
            let agent = &agents[name.as_str()];
            let seed = base.wrapping_add(i as u64 * NODE_SEED_STRIDE);
            let failed = |step: &str| verdict.failed_steps.iter().any(|f| f.step == step);
            let id = Some(self.next_audit_id);
            self.next_audit_id += 1;
            let audit = spans.open("audit", Some(round), id);
            let mut call = |name: &'static str, request: Request| {
                spans
                    .scope(name, Some(audit), id, || agent.handle(&request))
                    .0
            };
            let claims = match call("net.node.describe_s", Request::Describe) {
                Response::Description(c) => c,
                other => unexpected("Describe", other),
            };
            let survey = (!failed("survey")).then(|| {
                let request = Request::RunSurvey {
                    config: cloud.survey_config,
                    seed,
                };
                match call("net.node.survey_s", request) {
                    Response::Survey(s) => s,
                    other => unexpected("RunSurvey", other),
                }
            });
            let cells = (!failed("cells")).then(|| {
                match call(
                    "net.node.cells_s",
                    Request::ScanCells {
                        seed: seed ^ 0xCE11,
                    },
                ) {
                    Response::Cells(c) => c,
                    other => unexpected("ScanCells", other),
                }
            });
            let tv = (!failed("tv")).then(|| {
                match call(
                    "net.node.tv_s",
                    Request::SweepTv {
                        seed: seed ^ 0x7E1E,
                    },
                ) {
                    Response::Tv(t) => t,
                    other => unexpected("SweepTv", other),
                }
            });
            if let Some(s) = &survey {
                self.replay.surveys += 1;
                self.replay.messages += s.total_messages as u64;
                self.replay.skipped_low_snr += s.skipped_low_snr as u64;
            }
            let survey = survey.unwrap_or_else(|| empty_survey(cloud));
            let position = claims.position;
            let (v, judge) = spans.scope("net.cloud.judge_s", Some(audit), id, || {
                cloud.judge(
                    claims,
                    survey,
                    cells.unwrap_or_default(),
                    tv.unwrap_or_default(),
                    seed,
                )
            });
            black_box(v);
            spans.close(audit);
            // `Cloud::judge` computes this inside itself; the same public
            // scan and sweep are timed here as its child.
            spans.scope("net.cloud.expectation_s", Some(judge), id, || {
                black_box(clear_sky_expectation(position, seed))
            });
            self.replay.audits += 1;
        }
        let complete: Vec<_> = out
            .iter()
            .filter_map(|(_, v)| v.as_ref().filter(|v| v.is_complete()).map(|v| &v.profile))
            .collect();
        if !complete.is_empty() {
            spans.scope("core.robust.fuse_s", Some(round), None, || {
                black_box(fuse_profiles(&complete, cloud.consistency.fusion_rule))
            });
        }
        trace::disable();
        for s in trace::summarize(&trace::drain()) {
            *self.replay.program_wall_s.entry(s.name).or_default() += s.total_s;
        }
        self.replay.rounds += 1;
    }

    /// One full cycle on `cloud`: rounds, the optional crash/recover,
    /// rounds, end-of-cycle checks, shutdown. Returns each round's time.
    fn cycle(&mut self, mut cloud: Cloud, traced: bool) -> Vec<Elapsed> {
        let agents: Option<Agents> = traced.then(|| {
            self.plan
                .nodes
                .iter()
                .zip(&self.world.scenarios)
                .map(|(spec, sc)| (spec.name, build_agent(spec, sc, &self.world.sky)))
                .collect()
        });
        let base = self.seed;
        let mut times = Vec::new();
        for r in 0..self.plan.rounds_before_crash {
            times.push(self.round(&cloud, base + r, agents.as_ref()));
        }
        if let Some(after) = self.plan.rounds_after_crash {
            let pre_crash = cloud.registry_digest();
            let policy = cloud.retry_policy.clone();
            let sky = cloud.sky.clone();
            let (links, journal) = cloud.crash();
            let obs = telemetry(traced);
            let span = traced.then(|| self.spans.open("net.cloud.recover_s", None, None));
            let (recovered, took) = timed(|| Cloud::recover(sky, None, &journal, links, obs));
            if let Some(id) = span {
                self.spans.close(id);
            }
            self.tally.recover_cpu_s.push(took.cpu_s);
            let (recovered, _report) =
                recovered.expect("a crash-torn journal of this cloud always recovers");
            cloud = recovered;
            cloud.retry_policy = policy;
            if let Err(e) = checks::same_digest(
                "recovered vs pre-crash registry",
                &pre_crash,
                &cloud.registry_digest(),
            ) {
                self.errors.push(e);
            }
            let start = self.plan.rounds_before_crash;
            for r in start..start + after {
                times.push(self.round(&cloud, base + r, agents.as_ref()));
            }
        }
        let health = cloud.health_report();
        self.tally.evicted += health
            .iter()
            .filter(|(_, h, _)| *h == NodeHealth::Evicted)
            .count() as u64;
        if let Err(e) = checks::adversaries_evicted(&health, &self.plan.adversaries()) {
            self.errors.push(e);
        }
        let digest = cloud.registry_digest();
        let first = *self.first_digest.get_or_insert(digest);
        if let Err(e) = checks::same_digest("end-of-cycle registry vs first cycle", &first, &digest)
        {
            self.errors.push(e);
        }
        self.tally.add_link(&cloud.link_stats());
        cloud.shutdown();
        times
    }
}

/// `NodeAgent::handle` answered a request with the wrong kind: a bug in
/// the program, not a measurement.
fn unexpected(request: &str, got: Response) -> ! {
    panic!("NodeAgent::handle answered {request} with {}", got.kind())
}

fn empty_survey(cloud: &Cloud) -> SurveyResult {
    SurveyResult {
        points: Vec::new(),
        total_messages: 0,
        unmatched_messages: 0,
        skipped_low_snr: 0,
        decoded_positions: Vec::new(),
        config: cloud.survey_config,
    }
}

/// The clear-sky expectation `Cloud::judge` builds at the claimed
/// position: a cell scan and a TV sweep on an empty world.
fn clear_sky_expectation(
    position: aircal::geo::LatLon,
    seed: u64,
) -> (Vec<CellMeasurement>, Vec<TvMeasurement>) {
    let mut origin = position;
    origin.alt_m = 0.0;
    let world = World::open(origin);
    let site = SensorSite::outdoor("expectation", position);
    let cells = CellScanner::default().scan(&world, &site, &paper_towers(&origin), seed ^ 1);
    let tv = TvPowerProbe::default().sweep(&world, &site, &paper_tv_towers(&origin), seed ^ 1);
    (cells, tv)
}

/// Run `audit_honest` (`hostile = false`) or `audit_hostile`.
pub fn run(seed: u64, hostile: bool, seconds: f64, trace_run: bool) -> Outcome {
    let plan = if hostile {
        hostile_plan(seed)
    } else {
        honest_plan(seed)
    };

    // Set-up, timed SETUP_REPS times; the last one is kept.
    let mut setup = Vec::new();
    let (mut scen_s, mut sky_s, mut spawn_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<(World0, Cloud)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Stamp::now();
        let (scenarios, ts) =
            timed(|| plan.nodes.iter().map(|n| Scenario::build(n.kind)).collect());
        let (sky, tk) = timed(|| {
            Arc::new(TrafficSim::generate(
                TrafficConfig::paper_default(testbed_origin()),
                SKY_SEED,
            ))
        });
        let world = World0 { scenarios, sky };
        let (cloud, tn) = timed(|| spawn_fleet(&plan, &world, telemetry(trace_run)));
        setup.push(t0.elapsed());
        scen_s.push(ts.cpu_s);
        sky_s.push(tk.cpu_s);
        spawn_s.push(tn.cpu_s);
        if let Some((_, old)) = kept.replace((world, cloud)) {
            old.shutdown();
        }
    }
    let (world, first_cloud) = kept.expect("at least one set-up");

    let mut runner = Runner {
        seed,
        plan,
        world,
        tally: Tally::default(),
        replay: Replay::default(),
        spans: SpanTree::new(),
        errors: Vec::new(),
        first_digest: None,
        next_audit_id: 0,
    };
    let min_ops = stats::min_samples_for(crate::TAIL_PERCENTILE);
    let (mut ops, mut traced_ops) = (Vec::new(), Vec::new());
    let (mut failed, mut unfinished, mut cycles, mut untraced_audits) = (0u64, 0u64, 0u64, 0u64);
    let mut first_cloud = Some(first_cloud);
    let start = Stamp::now();
    loop {
        let t0 = Stamp::now();
        let traced = trace_run && cycles % 2 == 0;
        let cloud = first_cloud
            .take()
            .unwrap_or_else(|| spawn_fleet(&runner.plan, &runner.world, telemetry(traced)));
        let (errors0, attempted0, incomplete0) = (
            runner.errors.len(),
            runner.tally.attempted,
            runner.tally.incomplete,
        );
        let times = runner.cycle(cloud, traced);
        let attempted = runner.tally.attempted - attempted0;
        if runner.errors.len() > errors0 {
            failed += attempted;
            unfinished += attempted;
        } else {
            unfinished += runner.tally.incomplete - incomplete0;
        }
        if traced {
            traced_ops.extend(times);
        } else {
            ops.extend(times);
            untraced_audits += attempted;
        }
        cycles += 1;
        let enough = if trace_run {
            cycles >= 2
        } else {
            ops.len() >= min_ops
        };
        if enough && start.elapsed().wall_s + t0.elapsed().wall_s > seconds {
            break;
        }
    }
    let loop_time = start.elapsed();
    let layers = if trace_run {
        runner.layers(cycles, &scen_s, &sky_s, &spawn_s, &ops, &traced_ops)
    } else {
        BTreeMap::new()
    };
    let Runner {
        tally,
        errors,
        spans,
        ..
    } = runner;
    Outcome {
        op: "round",
        work: "audits",
        setup,
        ops,
        traced_ops,
        loop_time,
        work_items: untraced_audits,
        attempted: tally.attempted,
        unfinished,
        failed,
        errors,
        layers,
        spans,
    }
}

impl Runner {
    /// Per-layer metrics of a traced run.
    fn layers(
        &self,
        cycles: u64,
        scen_s: &[f64],
        sky_s: &[f64],
        spawn_s: &[f64],
        ops: &[Elapsed],
        traced_ops: &[Elapsed],
    ) -> BTreeMap<&'static str, f64> {
        let totals = self.spans.totals();
        let cpu = |name: &str| totals.get(name).map_or(0.0, |t| t.cpu_s);
        let own = |name: &str| totals.get(name).map_or(0.0, |t| t.self_cpu_s);
        let per = |v: f64, n: u64| v / n.max(1) as f64;
        let audits = self.replay.audits;
        let t = &self.tally;
        let mut m = BTreeMap::new();
        for name in [
            "net.node.describe_s",
            "net.node.survey_s",
            "net.node.cells_s",
            "net.node.tv_s",
            "net.cloud.judge_s",
            "net.cloud.expectation_s",
        ] {
            m.insert(name, per(own(name), audits));
        }
        let layered: f64 = [
            "net.node.describe_s",
            "net.node.survey_s",
            "net.node.cells_s",
            "net.node.tv_s",
            "net.cloud.judge_s",
            "core.robust.fuse_s",
        ]
        .iter()
        .map(|n| cpu(n))
        .sum();
        m.insert("net.cloud.unattributed_frac", 1.0 - layered / cpu("round"));
        m.insert(
            "core.robust.fuse_s",
            per(cpu("core.robust.fuse_s"), self.replay.rounds),
        );
        m.insert("net.cloud.recover_s", stats::mean(&t.recover_cpu_s));
        for (metric, span) in PROGRAM_SPANS {
            let wall = self.replay.program_wall_s.get(span).copied().unwrap_or(0.0);
            m.insert(metric, per(wall, audits));
        }
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        m.insert("env.scenario_build_s", med(scen_s));
        m.insert("aircraft.sky_s", med(sky_s));
        m.insert("net.node.spawn_s", med(spawn_s));
        let calls_ok = t.link.first_try_ok + t.link.retried_ok;
        m.insert(
            "net.link.attempts_per_audit",
            per(t.link.attempts as f64, t.attempted),
        );
        m.insert(
            "net.link.retries_per_audit",
            per(t.link.retries as f64, t.attempted),
        );
        m.insert(
            "net.link.retried_frac",
            per(t.link.retried_ok as f64, calls_ok),
        );
        m.insert("net.link.gave_up", per(t.link.gave_up as f64, cycles));
        m.insert(
            "net.link.stale_drained",
            per(t.link.stale_drained as f64, cycles),
        );
        m.insert("net.link.timeouts", per(t.link.timeouts as f64, cycles));
        m.insert(
            "net.cloud.wal_appends_per_round",
            per(t.wal_appends as f64, t.rounds),
        );
        m.insert("net.cloud.evicted_nodes", per(t.evicted as f64, cycles));
        m.insert(
            "core.survey.messages_per_audit",
            per(self.replay.messages as f64, self.replay.surveys),
        );
        m.insert(
            "core.survey.skipped_low_snr_per_audit",
            per(self.replay.skipped_low_snr as f64, self.replay.surveys),
        );
        m.insert("obs.trace_overhead_frac", crate::overhead(ops, traced_ops));
        m
    }
}

/// The program's own `aircal_obs` span names, by the metric they feed.
const PROGRAM_SPANS: [(&str, &str); 7] = [
    ("sdr.render_s", "render_windows"),
    ("core.survey.plan_s", "burst_planning"),
    ("core.survey.decode_s", "decode_windows"),
    ("adsb.preamble_scan_s", "preamble_scan"),
    ("core.survey.cpr_s", "cpr_decode"),
    ("tv.channel_s", "tv_channel"),
    ("dsp.band_power_s", "band_power"),
];
