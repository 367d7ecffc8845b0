//! Output checks. A failed check marks the operations it covers as
//! failed and makes the command exit non-zero.

use aircal::net::{NodeHealth, VerificationVerdict};
use aircal::sim::CampaignResult;
use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An honest audit came back partial or unreachable.
    Incomplete { node: String },
    /// Two digests that must agree do not.
    Digest {
        what: &'static str,
        expected: String,
        got: String,
    },
    /// An adversary survived its cycle.
    NotEvicted { node: String },
    /// An honest node reached quarantine or worse, with its ladder
    /// counters after the round (`round` is the round's base seed) and
    /// the eviction reason the cloud recorded, if it evicted the node.
    Quarantined {
        node: String,
        health: String,
        round: u64,
        failures: u32,
        anomalies: u32,
        reason: Option<String>,
    },
    /// The campaign's invariant monitor reported violations.
    Invariants(Vec<String>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Incomplete { node } => write!(f, "audit of {node} is not complete"),
            CheckError::Digest {
                what,
                expected,
                got,
            } => {
                write!(f, "{what}: expected digest {expected}, got {got}")
            }
            CheckError::NotEvicted { node } => write!(f, "adversary {node} was not evicted"),
            CheckError::Quarantined {
                node,
                health,
                round,
                failures,
                anomalies,
                reason,
            } => {
                write!(
                    f,
                    "honest node {node} reached {health} in the round with base seed {round} \
                     ({failures} consecutive failed audits, {anomalies} consecutive anomalous audits)"
                )?;
                match reason {
                    Some(r) => write!(f, "; eviction reason: {r}"),
                    None => Ok(()),
                }
            }
            CheckError::Invariants(v) => {
                write!(f, "{} invariant violations, first: {}", v.len(), v[0])
            }
        }
    }
}

/// Every node answered and every step delivered its evidence.
pub fn all_complete(verdicts: &[(String, Option<VerificationVerdict>)]) -> Result<(), CheckError> {
    match verdicts
        .iter()
        .find(|(_, v)| !v.as_ref().is_some_and(VerificationVerdict::is_complete))
    {
        Some((node, _)) => Err(CheckError::Incomplete { node: node.clone() }),
        None => Ok(()),
    }
}

/// `got` must equal `expected`.
pub fn same_digest<T: PartialEq + fmt::Display>(
    what: &'static str,
    expected: &T,
    got: &T,
) -> Result<(), CheckError> {
    if expected == got {
        Ok(())
    } else {
        Err(CheckError::Digest {
            what,
            expected: expected.to_string(),
            got: got.to_string(),
        })
    }
}

/// Every named adversary is `Evicted` in the health report.
pub fn adversaries_evicted(
    health: &[(String, NodeHealth, u32)],
    adversaries: &[&str],
) -> Result<(), CheckError> {
    for adv in adversaries {
        if !health
            .iter()
            .any(|(n, h, _)| n == adv && *h == NodeHealth::Evicted)
        {
            return Err(CheckError::NotEvicted {
                node: adv.to_string(),
            });
        }
    }
    Ok(())
}

/// No named honest node is at `Quarantined` or beyond after the round
/// with base seed `round`. `health` and `anomalies` are the cloud's
/// `health_report` and `anomaly_report`, both sorted by name.
pub fn honest_not_quarantined(
    health: &[(String, NodeHealth, u32)],
    anomalies: &[(String, u32, Option<String>)],
    honest: &[&str],
    round: u64,
) -> Result<(), CheckError> {
    match health.iter().find(|(n, h, _)| {
        honest.contains(&n.as_str()) && h.severity() >= NodeHealth::Quarantined.severity()
    }) {
        Some((node, h, failures)) => {
            let (count, reason) = anomalies
                .iter()
                .find(|(n, _, _)| n == node)
                .map_or((0, None), |(_, c, r)| (*c, r.clone()));
            Err(CheckError::Quarantined {
                node: node.clone(),
                health: h.to_string(),
                round,
                failures: *failures,
                anomalies: count,
                reason,
            })
        }
        None => Ok(()),
    }
}

/// A faulted campaign ends in its fault-free twin's cloud state, with a
/// silent invariant monitor.
pub fn campaign_matches_twin(
    result: &CampaignResult,
    twin_state_digest: &str,
) -> Result<(), CheckError> {
    if !result.invariant_violations.is_empty() {
        return Err(CheckError::Invariants(result.invariant_violations.clone()));
    }
    same_digest(
        "campaign state vs fault-free twin",
        &twin_state_digest.to_string(),
        &result.state_digest,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_cycle_digest_check_rejects_a_wrong_digest() {
        assert!(same_digest("cycle", &0xfeed_u64, &0xfeed_u64).is_ok());
        let err = same_digest("cycle", &0xfeed_u64, &0xbeef_u64).unwrap_err();
        assert!(matches!(err, CheckError::Digest { what: "cycle", .. }));
    }

    #[test]
    fn hostile_recovery_digest_check_rejects_a_wrong_digest() {
        let pre_crash = 0x0123_4567_89ab_cdef_u64;
        assert!(same_digest("recovered vs pre-crash", &pre_crash, &pre_crash).is_ok());
        assert!(same_digest("recovered vs pre-crash", &pre_crash, &(pre_crash ^ 1)).is_err());
    }

    #[test]
    fn campaign_check_rejects_a_wrong_twin_digest() {
        let mut cfg = aircal::sim::CampaignConfig::paper_default(40, 3);
        cfg.max_ticks = 200;
        let r = aircal::sim::run(&cfg);
        assert!(campaign_matches_twin(&r, &r.state_digest).is_ok());
        let wrong = format!("{}0", r.state_digest);
        assert!(matches!(
            campaign_matches_twin(&r, &wrong),
            Err(CheckError::Digest { .. })
        ));
        let mut violated = r.clone();
        violated
            .invariant_violations
            .push("double-applied report".into());
        assert!(matches!(
            campaign_matches_twin(&violated, &r.state_digest),
            Err(CheckError::Invariants(_))
        ));
    }

    #[test]
    fn ladder_checks_name_the_offender() {
        let health = vec![
            ("adv".to_string(), NodeHealth::Suspect, 0),
            ("h".to_string(), NodeHealth::Quarantined, 3),
        ];
        assert_eq!(
            adversaries_evicted(&health, &["adv"]),
            Err(CheckError::NotEvicted { node: "adv".into() })
        );
        let anomalies = vec![
            ("adv".to_string(), 2, None),
            ("h".to_string(), 4, Some("drift: +8.3 dB".to_string())),
        ];
        let err = honest_not_quarantined(&health, &anomalies, &["h"], 56).unwrap_err();
        assert!(matches!(
            &err,
            CheckError::Quarantined {
                round: 56,
                failures: 3,
                anomalies: 4,
                ..
            }
        ));
        assert!(err.to_string().ends_with("eviction reason: drift: +8.3 dB"));
        assert!(honest_not_quarantined(&health, &anomalies, &["adv"], 56).is_ok());
        assert!(all_complete(&[("x".to_string(), None)]).is_err());
    }
}
