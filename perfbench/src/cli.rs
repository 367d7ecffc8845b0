//! Command line: `--workload <name> --seed <n> [--seconds <n>] [--trace <0|1>]`.
//!
//! Every flag takes a value; an unknown flag, a repeated flag, a missing
//! value or an unparsable one is a [`UsageError`], never ignored.

use std::fmt;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AuditHonest,
    AuditHostile,
    FleetCampaign,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AuditHonest,
        Workload::AuditHostile,
        Workload::FleetCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditHonest => "audit_honest",
            Workload::AuditHostile => "audit_hostile",
            Workload::FleetCampaign => "fleet_campaign",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measured wall seconds (the run also continues until the tail
    /// percentile has enough samples).
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    Help,
    UnknownFlag(String),
    MissingValue(&'static str),
    Repeated(&'static str),
    BadValue { flag: &'static str, value: String },
    Missing(&'static str),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Help => write!(f, "help requested"),
            UsageError::UnknownFlag(s) => write!(f, "unknown argument {s:?}"),
            UsageError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            UsageError::Repeated(flag) => write!(f, "{flag} given twice"),
            UsageError::BadValue { flag, value } => write!(f, "bad value {value:?} for {flag}"),
            UsageError::Missing(flag) => write!(f, "{flag} is required"),
        }
    }
}

pub const USAGE: &str = "usage: perfbench --workload <audit_honest|audit_hostile|fleet_campaign> \
--seed <u64> [--seconds <1..=3600>] [--trace <0|1>]";

const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];

pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, UsageError> {
    let mut values: [Option<String>; 4] = Default::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(UsageError::Help);
        }
        let Some(slot) = FLAGS.iter().position(|f| *f == arg) else {
            return Err(UsageError::UnknownFlag(arg));
        };
        let value = it.next().ok_or(UsageError::MissingValue(FLAGS[slot]))?;
        if values[slot].replace(value).is_some() {
            return Err(UsageError::Repeated(FLAGS[slot]));
        }
    }
    let [workload, seed, seconds, trace] = values;
    let bad = |flag: &'static str, value: &str| UsageError::BadValue {
        flag,
        value: value.to_string(),
    };
    let workload = workload.ok_or(UsageError::Missing("--workload"))?;
    let workload = Workload::parse(&workload).ok_or_else(|| bad("--workload", &workload))?;
    let seed = seed.ok_or(UsageError::Missing("--seed"))?;
    let seed = seed.parse::<u64>().map_err(|_| bad("--seed", &seed))?;
    let seconds = match seconds {
        None => 30,
        Some(s) => s
            .parse::<u64>()
            .ok()
            .filter(|n| (1..=3600).contains(n))
            .ok_or_else(|| bad("--seconds", &s))?,
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(bad("--trace", other)),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, UsageError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = p(&[
            "--workload",
            "audit_hostile",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::AuditHostile,
                seed: 7,
                seconds: 30,
                trace: true
            }
        );
        let a = p(&["--seed", "1", "--workload", "fleet_campaign"]).unwrap();
        assert_eq!((a.seconds, a.trace), (30, false));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert_eq!(
            p(&["--workload", "audit_honest", "--seed", "1", "--quick"]),
            Err(UsageError::UnknownFlag("--quick".into()))
        );
        assert_eq!(
            p(&["--workload", "audit_honest"]),
            Err(UsageError::Missing("--seed"))
        );
        assert_eq!(p(&["--seed"]), Err(UsageError::MissingValue("--seed")));
        assert_eq!(
            p(&["--seed", "1", "--seed", "2", "--workload", "audit_honest"]),
            Err(UsageError::Repeated("--seed"))
        );
        assert!(matches!(
            p(&["--workload", "bogus", "--seed", "1"]),
            Err(UsageError::BadValue { .. })
        ));
        assert!(matches!(
            p(&["--workload", "audit_honest", "--seed", "-1"]),
            Err(UsageError::BadValue { .. })
        ));
        assert!(matches!(
            p(&[
                "--workload",
                "audit_honest",
                "--seed",
                "1",
                "--trace",
                "yes"
            ]),
            Err(UsageError::BadValue { .. })
        ));
        assert!(matches!(
            p(&[
                "--workload",
                "audit_honest",
                "--seed",
                "1",
                "--seconds",
                "0"
            ]),
            Err(UsageError::BadValue { .. })
        ));
        assert_eq!(
            p(&["audit_honest"]),
            Err(UsageError::UnknownFlag("audit_honest".into()))
        );
    }
}
