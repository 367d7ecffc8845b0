//! Shared helpers for the figure-regeneration binaries and Criterion
//! benches.
//!
//! Every figure in the paper's evaluation has a regenerating target here:
//!
//! | Paper artifact | Binary | Bench |
//! |---|---|---|
//! | Figure 1(a–c) — ADS-B directionality | `fig1` | `fig1_survey` |
//! | Figure 2 — testbed map | `fig2map` | — |
//! | Figure 3 — cellular RSRP | `fig3` | `fig3_cellular` |
//! | Figure 4 — TV band power | `fig4` | `fig4_tv` |
//! | Ablations A1–A5 (DESIGN.md) | `ablations` | `ablation_fov`, `adsb_decode` |

use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_core::survey::{run_survey, SurveyConfig, SurveyResult};
use aircal_env::Scenario;

pub mod alloc_counter;
pub use alloc_counter::{AllocSnapshot, CountingAllocator};

/// Standard survey used by the figure harness: the paper's 30 s procedure
/// with 70 aircraft in the disc.
pub fn paper_survey(scenario: &Scenario, seed: u64) -> SurveyResult {
    let traffic = paper_traffic(scenario, seed);
    run_survey(
        &scenario.world,
        &scenario.world.index(),
        &scenario.site,
        &traffic,
        &SurveyConfig::default(),
        seed,
    )
}

/// The traffic generator settings shared by the harness.
pub fn paper_traffic(scenario: &Scenario, seed: u64) -> TrafficSim {
    TrafficSim::generate(
        TrafficConfig {
            count: 70,
            ..TrafficConfig::paper_default(scenario.site.position)
        },
        seed,
    )
}

/// A command line a bench binary refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// A `-`-prefixed argument the binary does not accept.
    UnknownFlag(String),
    /// A flag that takes a value came last.
    MissingValue(String),
    /// A flag's value is not a non-negative integer.
    BadValue {
        /// The flag.
        flag: String,
        /// What followed it.
        value: String,
    },
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::UnknownFlag(a) => write!(f, "unknown flag '{a}'"),
            UsageError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            UsageError::BadValue { flag, value } => {
                write!(f, "{flag} takes a non-negative integer, not '{value}'")
            }
        }
    }
}

impl std::error::Error for UsageError {}

/// Parse a bench binary's arguments (program name excluded). `--seed N`
/// is always accepted (default 2023); `switches` are the bare flags the
/// binary accepts and `valued` its flags that take a non-negative integer
/// (`--flag N` or `--flag=N`). Returns the positionals and accepted
/// flags in order, valued ones as `--flag=N` (read them back with
/// [`flag_value`]), and the seed.
pub fn parse_args_from(
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
    valued: &[&str],
) -> Result<(Vec<String>, u64), UsageError> {
    let mut seed = 2023;
    let mut out = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if !a.starts_with('-') {
            out.push(a);
            continue;
        }
        if switches.contains(&a.as_str()) {
            out.push(a);
            continue;
        }
        let (flag, inline) = match a.split_once('=') {
            Some((flag, v)) => (flag.to_string(), Some(v.to_string())),
            None => (a, None),
        };
        if flag != "--seed" && !valued.contains(&flag.as_str()) {
            return Err(UsageError::UnknownFlag(flag));
        }
        let value = match inline.or_else(|| args.next()) {
            Some(v) => v,
            None => return Err(UsageError::MissingValue(flag)),
        };
        let Ok(n) = value.parse::<u64>() else {
            return Err(UsageError::BadValue { flag, value });
        };
        if flag == "--seed" {
            seed = n;
        } else {
            out.push(format!("{flag}={n}"));
        }
    }
    Ok((out, seed))
}

/// The last value [`parse_args_from`] accepted for the valued `flag`.
pub fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .rev()
        .find_map(|a| a.strip_prefix(flag)?.strip_prefix('=')?.parse().ok())
}

/// [`parse_args_from`] over the process arguments: on a refused command
/// line, print the error and `usage` to stderr and exit with status 2.
pub fn parse_args(usage: &str, switches: &[&str], valued: &[&str]) -> (Vec<String>, u64) {
    parse_args_from(std::env::args().skip(1), switches, valued).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<String>, u64), UsageError> {
        parse_args_from(args.iter().map(|a| a.to_string()), &["--quick"], &["--threads"])
    }

    #[test]
    fn accepts_known_flags_positionals_and_seed() {
        let (args, seed) = parse(&["a4", "--quick", "--seed", "7", "--threads", "3"]).unwrap();
        assert_eq!(args, ["a4", "--quick", "--threads=3"]);
        assert_eq!(seed, 7);
        assert_eq!(flag_value(&args, "--threads"), Some(3));
        let (args, seed) = parse(&["--threads=5", "--seed=9"]).unwrap();
        assert_eq!((flag_value(&args, "--threads"), seed), (Some(5), 9));
        assert_eq!(parse(&[]).unwrap(), (Vec::new(), 2023));
    }

    #[test]
    fn unknown_flag_is_refused() {
        assert_eq!(
            parse(&["--check-alocs"]),
            Err(UsageError::UnknownFlag("--check-alocs".into()))
        );
    }

    #[test]
    fn malformed_seed_is_refused() {
        assert_eq!(
            parse(&["--seed", "abc"]),
            Err(UsageError::BadValue {
                flag: "--seed".into(),
                value: "abc".into()
            })
        );
    }

    #[test]
    fn missing_seed_value_is_refused() {
        assert_eq!(parse(&["--seed"]), Err(UsageError::MissingValue("--seed".into())));
    }

    #[test]
    fn malformed_threads_is_refused() {
        assert_eq!(
            parse(&["--threads", "x"]),
            Err(UsageError::BadValue {
                flag: "--threads".into(),
                value: "x".into()
            })
        );
    }
}
