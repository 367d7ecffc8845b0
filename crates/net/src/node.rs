//! The node agent: a volunteer's sensor installation, as a process.

use crate::adversary::{Adversary, AdversaryKind};
use crate::protocol::{NodeClaims, Request, Response};
use aircal_aircraft::TrafficSim;
use aircal_cellular::{paper_towers, CellScanner, CellScratch};
use aircal_core::survey::run_survey;
use aircal_core::trust::fabricate_survey;
use aircal_env::{GeoAccel, Scenario};
use aircal_tv::{paper_tv_towers, TvPowerProbe};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// FNV-1a offset basis: the hash-chain value of an empty service history.
pub(crate) const CHAIN_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

pub(crate) fn fnv1a_step(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only log of the measurement requests a node has served, folded
/// into a hash chain. The cloud records `(served, chain)` checkpoints via
/// [`Request::Attest`]; a node restarting from a forked or rolled-back
/// history produces a different chain value at the checkpointed length
/// and is caught at reconciliation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceLedger {
    /// `hashes[i]` = chain head after `i + 1` recorded requests.
    hashes: Vec<u64>,
}

impl ServiceLedger {
    /// Record one served measurement request.
    pub fn record(&mut self, kind: &str, seed: u64) {
        let prev = self.chain();
        let h = fnv1a_step(fnv1a_step(prev, kind.as_bytes()), &seed.to_le_bytes());
        self.hashes.push(h);
    }

    /// Measurement requests served so far.
    pub fn served(&self) -> u64 {
        self.hashes.len() as u64
    }

    /// Current chain head ([`CHAIN_EMPTY`] before any request).
    pub fn chain(&self) -> u64 {
        self.hashes.last().copied().unwrap_or(CHAIN_EMPTY)
    }

    /// Chain value after `min(upto, served)` requests.
    pub fn chain_at(&self, upto: u64) -> u64 {
        let n = (upto.min(self.served())) as usize;
        if n == 0 {
            CHAIN_EMPTY
        } else {
            self.hashes[n - 1]
        }
    }

    /// Raw chain history (for snapshots).
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Rebuild from a snapshot's chain history.
    pub fn from_hashes(hashes: Vec<u64>) -> Self {
        Self { hashes }
    }
}

/// How the operator behaves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeBehavior {
    /// Runs the requested measurements and reports them as-is.
    Honest,
    /// Pads survey reports with invented receptions and ghost aircraft —
    /// the paper's "potential incentive to provide fabricated or incorrect
    /// data in order to receive reimbursement".
    Fabricator {
        /// Ghost aircraft injected per survey.
        ghosts: usize,
    },
    /// Honest measurements, dishonest *claims* (e.g. an indoor install
    /// registered as outdoor to command a higher price).
    FalseClaims,
}

/// One sensor node: an installation plus the operator's behavior and
/// public claims.
#[derive(Debug, Clone)]
pub struct NodeAgent {
    /// The physical installation (world + site).
    pub scenario: Scenario,
    /// Operator behavior.
    pub behavior: NodeBehavior,
    /// What the operator registered with the marketplace.
    pub claims: NodeClaims,
    /// The shared sky (every node hears the same aircraft).
    pub sky: Arc<TrafficSim>,
    /// Per-installation geometry accelerator: spatial index plus path
    /// memo, built once at install time and reused across every request
    /// this node services. Behind a mutex because [`NodeAgent::handle`]
    /// takes `&self`; cloned nodes share the warm cache.
    geo: Arc<Mutex<GeoAccel>>,
    /// Active data-plane adversary, if the node is compromised.
    pub adversary: Option<Adversary>,
    /// Hash-chained log of served measurement requests. Shared by clones,
    /// so a supervisor holding a clone can snapshot the live agent even
    /// after the original moved into a service thread.
    ledger: Arc<Mutex<ServiceLedger>>,
}

impl NodeAgent {
    /// Create a node whose claims match reality (modulo behavior).
    pub fn new(scenario: Scenario, behavior: NodeBehavior, sky: Arc<TrafficSim>) -> Self {
        let claimed_outdoor = match behavior {
            NodeBehavior::FalseClaims => true, // always claims the premium tier
            _ => scenario.is_outdoor,
        };
        let claims = NodeClaims {
            name: scenario.site.name.clone(),
            position: scenario.site.position,
            outdoor: claimed_outdoor,
            freq_range_hz: (100e6, 6e9),
            price_per_hour: if claimed_outdoor { 2.0 } else { 0.8 },
        };
        let geo = Arc::new(Mutex::new(scenario.world.accel()));
        Self {
            scenario,
            behavior,
            claims,
            sky,
            geo,
            adversary: None,
            ledger: Arc::new(Mutex::new(ServiceLedger::default())),
        }
    }

    /// Create a compromised node: honest claims, adversarial data plane.
    pub fn with_adversary(
        scenario: Scenario,
        sky: Arc<TrafficSim>,
        kind: AdversaryKind,
        seed: u64,
    ) -> Self {
        let mut node = Self::new(scenario, NodeBehavior::Honest, sky);
        node.adversary = Some(Adversary::new(kind, seed));
        node
    }

    /// Copy out the service ledger (for attestation checks in tests and
    /// for snapshots).
    pub fn ledger(&self) -> ServiceLedger {
        self.ledger.lock().expect("ledger poisoned").clone()
    }

    fn record_served(&self, kind: &str, seed: u64) {
        self.ledger.lock().expect("ledger poisoned").record(kind, seed);
    }

    /// Overwrite the service ledger (snapshot restore only).
    pub fn restore_ledger(&self, ledger: ServiceLedger) {
        *self.ledger.lock().expect("ledger poisoned") = ledger;
    }

    /// Serialize this node's durable state (claims, behavior, adversary
    /// state, service ledger) into a versioned, checksummed snapshot.
    pub fn snapshot(&self) -> Vec<u8> {
        crate::snapshot::snapshot_node(self)
    }

    /// Rebuild a node from its snapshot plus the reconstructed physical
    /// installation. See [`crate::snapshot`] for the failure modes.
    pub fn restore(
        scenario: Scenario,
        sky: Arc<TrafficSim>,
        bytes: &[u8],
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        crate::snapshot::restore_node(scenario, sky, bytes)
    }

    /// Service one request. `Shutdown` yields [`Response::Bye`]; the
    /// transport layer stops the node afterwards.
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Describe => Response::Description(self.claims.clone()),
            Request::RunSurvey { config, seed } => {
                // An adversary may substitute the commissioned seed (stale
                // replay, frozen capture); the ledger records what was
                // *commissioned*, because that is what the cloud can later
                // cross-examine.
                let eff_seed = self
                    .adversary
                    .as_ref()
                    .map_or(*seed, |a| a.survey_seed(*seed));
                let geo = self.geo.lock().expect("geo accel poisoned");
                let honest = run_survey(
                    &self.scenario.world,
                    &geo.index,
                    &self.scenario.site,
                    &self.sky,
                    config,
                    eff_seed,
                );
                drop(geo);
                let mut reported = match self.behavior {
                    NodeBehavior::Fabricator { ghosts } => fabricate_survey(&honest, ghosts),
                    _ => honest,
                };
                if let Some(a) = &self.adversary {
                    a.corrupt_survey(*seed, &mut reported);
                }
                self.record_served("survey", *seed);
                Response::Survey(reported)
            }
            Request::ScanCells { seed } => {
                let eff_seed = self
                    .adversary
                    .as_ref()
                    .map_or(*seed, |a| a.sweep_seed(*seed));
                let db = paper_towers(&self.scenario.world.origin);
                let mut geo = self.geo.lock().expect("geo accel poisoned");
                let mut out = Vec::new();
                CellScanner::default().scan_with(
                    &self.scenario.world,
                    &mut geo,
                    &self.scenario.site,
                    &db,
                    eff_seed,
                    &mut CellScratch::default(),
                    &mut out,
                );
                drop(geo);
                if let Some(a) = &self.adversary {
                    a.corrupt_cells(&mut out);
                }
                self.record_served("cells", *seed);
                Response::Cells(out)
            }
            Request::SweepTv { seed } => {
                let eff_seed = self
                    .adversary
                    .as_ref()
                    .map_or(*seed, |a| a.sweep_seed(*seed));
                let towers = paper_tv_towers(&self.scenario.world.origin);
                let mut geo = self.geo.lock().expect("geo accel poisoned");
                let mut out = TvPowerProbe::default().sweep_with_geo(
                    &self.scenario.world,
                    &mut geo,
                    &self.scenario.site,
                    &towers,
                    eff_seed,
                );
                drop(geo);
                if let Some(a) = &self.adversary {
                    a.corrupt_tv(&mut out);
                }
                self.record_served("tv", *seed);
                Response::Tv(out)
            }
            Request::MonitorBand {
                center_hz,
                span_hz,
                seed,
            } => {
                let (bins, center, span) = self.monitor_band(*center_hz, *span_hz, *seed);
                self.record_served("monitor", *seed);
                Response::Psd {
                    center_hz: center,
                    span_hz: span,
                    bins,
                }
            }
            Request::Attest { upto } => {
                let ledger = self.ledger.lock().expect("ledger poisoned");
                Response::Attestation {
                    served: ledger.served(),
                    chain: ledger.chain(),
                    upto_chain: ledger.chain_at(*upto),
                }
            }
            Request::Shutdown => Response::Bye,
        }
    }

    /// Event-driven service entry point: drive this agent under a fault
    /// plan without spawning a service thread.
    ///
    /// Replicates the node-side semantics of
    /// [`crate::transport::spawn_node_with_faults`] exactly: a crashed
    /// daemon exits before touching the request (the counter does not
    /// advance), a hung request is swallowed after being received (the
    /// counter advances but no reply is produced), and everything else is
    /// serviced via [`NodeAgent::handle`]. `served` is the caller-held
    /// count of requests that have reached the node so far — the same
    /// counter the service thread keeps privately.
    pub fn service_offline(
        &self,
        request: &Request,
        faults: &crate::transport::LinkFaults,
        served: &mut u64,
    ) -> ServiceOutcome {
        use crate::transport::NodeVerdict;
        match faults.node_verdict(*served) {
            NodeVerdict::Crashed => ServiceOutcome::Crashed,
            NodeVerdict::Hang => {
                *served += 1;
                ServiceOutcome::Hung
            }
            NodeVerdict::Service => {
                *served += 1;
                ServiceOutcome::Reply(self.handle(request))
            }
        }
    }

    /// The rented product: tune to a band, capture through this node's
    /// actual environment and front end, and return a Welch PSD. Every
    /// broadcast transmitter whose channel overlaps the span contributes
    /// its signal at the power this installation really receives — so a
    /// renter of an obstructed node gets (correctly) pessimistic data.
    fn monitor_band(&self, center_hz: f64, span_hz: f64, seed: u64) -> (Vec<f64>, f64, f64) {
        use aircal_dsp::psd::welch_psd;
        use aircal_dsp::window::Window;
        use aircal_dsp::Cplx;
        use aircal_rfprop::LinkBudget;
        use aircal_sdr::{Frontend, FrontendConfig};
        use rand::SeedableRng;

        let span = span_hz.clamp(1e6, 20e6);
        let n = 16_384usize;
        let mut fe_cfg = FrontendConfig::bladerf_xa9(center_hz, span);
        fe_cfg.full_scale_dbm = -25.0;
        fe_cfg.noise_figure_db = self.scenario.site.noise_figure_db;
        let fe = Frontend::new(fe_cfg);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);

        let mut capture = vec![Cplx::ZERO; n];
        let mut geo = self.geo.lock().expect("geo accel poisoned");
        for tower in paper_tv_towers(&self.scenario.world.origin) {
            let f_c = tower.channel.center_hz();
            let offset = f_c - center_hz;
            if offset.abs() > span / 2.0 + 3e6 {
                continue;
            }
            let path =
                geo.profile(&self.scenario.world, &self.scenario.site, &tower.position, f_c);
            let bearing = self.scenario.site.position.bearing_deg(&tower.position);
            let elevation = self.scenario.site.position.elevation_deg(&tower.position);
            let rx_gain = self.scenario.site.antenna.gain_dbi(bearing, elevation);
            let rx_dbm =
                LinkBudget::new(tower.erp_dbm, 0.0, rx_gain).sample_rx_dbm(&path, &mut rng);
            // Synthesize at baseband and heterodyne to the channel offset.
            let base = aircal_tv::synth::synthesize_8vsb(n, span);
            let sig = fe.scale_and_impair(&base, rx_dbm, 0.2, 0);
            for (k, s) in sig.iter().enumerate() {
                capture[k] +=
                    *s * Cplx::phasor(core::f64::consts::TAU * offset / span * k as f64);
            }
        }
        fe.finalize(&mut capture, &mut rng);
        let bins =
            welch_psd(&capture, 512, 0.5, Window::Hann).expect("capture longer than a segment");
        (bins, center_hz, span)
    }
}

/// What happened when a request was driven through
/// [`NodeAgent::service_offline`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceOutcome {
    /// The node serviced the request and produced this reply.
    Reply(Response),
    /// The node received the request but wedged mid-service; no reply
    /// will ever come. The request still counts against the served
    /// counter, exactly as in the threaded service loop.
    Hung,
    /// The node's host daemon has crashed; the request was never
    /// received and the served counter does not advance.
    Crashed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_aircraft::TrafficConfig;
    use aircal_core::survey::SurveyConfig;
    use aircal_env::ScenarioKind;

    fn sky(center: aircal_geo::LatLon) -> Arc<TrafficSim> {
        Arc::new(TrafficSim::generate(
            TrafficConfig {
                count: 30,
                ..TrafficConfig::paper_default(center)
            },
            77,
        ))
    }

    #[test]
    fn honest_node_reports_true_claims() {
        let s = Scenario::build(ScenarioKind::Indoor);
        let node = NodeAgent::new(s.clone(), NodeBehavior::Honest, sky(s.site.position));
        match node.handle(&Request::Describe) {
            Response::Description(c) => {
                assert!(!c.outdoor);
                assert_eq!(c.name, "indoor");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn service_offline_mirrors_threaded_fault_semantics() {
        use crate::transport::LinkFaults;
        let s = Scenario::build(ScenarioKind::Indoor);
        let node = NodeAgent::new(s.clone(), NodeBehavior::Honest, sky(s.site.position));
        let faults = LinkFaults {
            hang_on: vec![1],
            crash_after: Some(3),
            ..LinkFaults::default()
        };
        let mut served = 0u64;
        let req = Request::Describe;
        // Request 0 is serviced normally.
        match node.service_offline(&req, &faults, &mut served) {
            ServiceOutcome::Reply(Response::Description(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(served, 1);
        // Request 1 hangs: swallowed after receipt, counter still advances.
        assert_eq!(
            node.service_offline(&req, &faults, &mut served),
            ServiceOutcome::Hung
        );
        assert_eq!(served, 2);
        // Request 2 serviced, then the daemon crashes before request 3.
        assert!(matches!(
            node.service_offline(&req, &faults, &mut served),
            ServiceOutcome::Reply(_)
        ));
        assert_eq!(served, 3);
        assert_eq!(
            node.service_offline(&req, &faults, &mut served),
            ServiceOutcome::Crashed
        );
        assert_eq!(served, 3, "a crashed daemon never receives the request");
    }

    #[test]
    fn false_claims_node_lies_about_install() {
        let s = Scenario::build(ScenarioKind::Indoor);
        let node = NodeAgent::new(s.clone(), NodeBehavior::FalseClaims, sky(s.site.position));
        match node.handle(&Request::Describe) {
            Response::Description(c) => {
                assert!(c.outdoor, "FalseClaims must register as outdoor");
                assert!(c.price_per_hour > 1.0, "and charge the premium rate");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fabricator_pads_survey() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let shared = sky(s.site.position);
        let honest = NodeAgent::new(s.clone(), NodeBehavior::Honest, shared.clone());
        let cheat = NodeAgent::new(
            s.clone(),
            NodeBehavior::Fabricator { ghosts: 50 },
            shared,
        );
        let req = Request::RunSurvey {
            config: SurveyConfig::quick(),
            seed: 3,
        };
        let (h, c) = match (honest.handle(&req), cheat.handle(&req)) {
            (Response::Survey(h), Response::Survey(c)) => (h, c),
            other => panic!("unexpected {other:?}"),
        };
        assert!(c.unmatched_messages > h.unmatched_messages + 400);
        assert!(c.observation_rate() >= h.observation_rate());
    }

    /// Renting a rooftop node yields a hot channel; the same rental from
    /// the indoor node yields tens of dB less in-band power — the renter
    /// sees exactly what the calibration predicted.
    #[test]
    fn monitor_band_reflects_installation_quality() {
        use aircal_dsp::psd::band_power_from_psd;
        let shared = sky(aircal_env::scenarios::testbed_origin());
        let req = Request::MonitorBand {
            center_hz: 473e6, // KST-14, west of the site
            span_hz: 8e6,
            seed: 5,
        };
        let power_at = |kind: ScenarioKind| -> f64 {
            let node = NodeAgent::new(Scenario::build(kind), NodeBehavior::Honest, shared.clone());
            match node.handle(&req) {
                Response::Psd { bins, span_hz, .. } => aircal_dsp::power::lin_to_db(
                    band_power_from_psd(&bins, span_hz, -2.7e6, 2.7e6),
                ),
                other => panic!("unexpected {other:?}"),
            }
        };
        let roof = power_at(ScenarioKind::Rooftop);
        let indoor = power_at(ScenarioKind::Indoor);
        assert!(
            roof > indoor + 15.0,
            "rooftop {roof:.1} dBFS vs indoor {indoor:.1} dBFS"
        );
        // And the rooftop actually sees a strong station.
        assert!(roof > -20.0, "rooftop in-band {roof:.1} dBFS");
    }

    #[test]
    fn monitor_empty_band_is_noise_floor() {
        use aircal_dsp::psd::band_power_from_psd;
        let shared = sky(aircal_env::scenarios::testbed_origin());
        let node = NodeAgent::new(
            Scenario::build(ScenarioKind::OpenField),
            NodeBehavior::Honest,
            shared,
        );
        // 150 MHz: no broadcast source modeled there.
        let req = Request::MonitorBand {
            center_hz: 150e6,
            span_hz: 8e6,
            seed: 6,
        };
        match node.handle(&req) {
            Response::Psd { bins, span_hz, .. } => {
                let p = aircal_dsp::power::lin_to_db(band_power_from_psd(
                    &bins, span_hz, -3e6, 3e6,
                ));
                assert!(p < -55.0, "empty band measured {p:.1} dBFS");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn measurement_requests_answered() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        let node = NodeAgent::new(s.clone(), NodeBehavior::Honest, sky(s.site.position));
        match node.handle(&Request::ScanCells { seed: 1 }) {
            Response::Cells(ms) => assert_eq!(ms.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
        match node.handle(&Request::SweepTv { seed: 1 }) {
            Response::Tv(ms) => assert_eq!(ms.len(), 6),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(node.handle(&Request::Shutdown).kind(), "bye");
    }
}
