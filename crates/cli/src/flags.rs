//! The CLI's one flag table.
//!
//! Every subcommand declares its flags here: name, [`Kind`] (which
//! fixes how the value parses and the range it must lie in), default,
//! and help line. [`parse_args`] rejects a flag its subcommand does not
//! declare and a value outside its kind before any command runs, and
//! [`help`] renders the same table, so parsing, defaults and help text
//! cannot drift apart.

use std::collections::BTreeMap;
use std::str::FromStr;

use crate::CliError;
use Kind::*;

/// What a flag's value must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Takes no value; giving the flag turns it on.
    Bool,
    /// An integer ≥ 0.
    Uint,
    /// An integer in `1..=u32::MAX`.
    Count,
    /// A finite number ≥ 0.
    NonNegative,
    /// A finite number > 0.
    Positive,
    /// A finite number in `[0, 1]`.
    Fraction,
    /// One of the listed names, matched case-insensitively.
    Enum(&'static [&'static str]),
    /// A filesystem path.
    Path,
    /// Free text, checked by the command that reads it.
    Str,
}

impl Kind {
    /// Checks `raw` against this kind and returns the value to store
    /// (an [`Kind::Enum`] name as listed); `None` when it is malformed
    /// or out of range, and always for [`Kind::Bool`], which takes no
    /// value.
    pub(crate) fn check(self, raw: &str) -> Option<String> {
        let number = raw.parse::<f64>().ok().filter(|x| x.is_finite());
        let ok = match self {
            Kind::Bool => false,
            Kind::Uint => raw.parse::<u64>().is_ok(),
            Kind::Count => raw.parse::<u32>().is_ok_and(|n| n >= 1),
            Kind::NonNegative => number.is_some_and(|x| x >= 0.0),
            Kind::Positive => number.is_some_and(|x| x > 0.0),
            Kind::Fraction => number.is_some_and(|x| (0.0..=1.0).contains(&x)),
            Kind::Enum(names) => {
                let name = names.iter().find(|name| name.eq_ignore_ascii_case(raw));
                return name.map(|name| name.to_string());
            }
            Kind::Path | Kind::Str => true,
        };
        ok.then(|| raw.to_string())
    }

    /// The value placeholder and range shown in help.
    fn placeholder(self) -> String {
        match self {
            Kind::Bool => String::new(),
            Kind::Uint => " N (integer ≥ 0)".into(),
            Kind::Count => " N (integer ≥ 1)".into(),
            Kind::NonNegative => " X (≥ 0)".into(),
            Kind::Positive => " X (> 0)".into(),
            Kind::Fraction => " X (0 to 1)".into(),
            Kind::Enum(names) => format!(" {}", names.join("|")),
            Kind::Path => " PATH".into(),
            Kind::Str => " TEXT".into(),
        }
    }
}

/// One declared flag.
#[derive(Debug, PartialEq)]
pub(crate) struct Flag {
    /// The name, without the leading `--`.
    pub(crate) name: &'static str,
    /// What the value must be.
    pub(crate) kind: Kind,
    /// The value used when the flag is absent, if any.
    pub(crate) default: Option<&'static str>,
    /// The help line.
    pub(crate) help: &'static str,
}

const fn flag(
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
    }
}

/// One subcommand and its flags.
#[derive(Debug, PartialEq)]
pub(crate) struct Command {
    /// The name.
    pub(crate) name: &'static str,
    /// One-line summary.
    pub(crate) summary: &'static str,
    /// Flag groups; shared groups are reused across subcommands.
    pub(crate) groups: &'static [&'static [Flag]],
}

impl Command {
    /// Every flag the subcommand declares, in help order.
    pub(crate) fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }
}

#[rustfmt::skip]
const POLICIES: &[&str] = &["polca", "1t-lp", "one-thresh-low-pri", "1t-all", "one-thresh-all", "nocap", "no-cap"];

#[rustfmt::skip]
const SEED: &[Flag] = &[flag("seed", Uint, Some("17"), "experiment seed; outputs are deterministic per seed")];

#[rustfmt::skip]
const JOBS: &[Flag] = &[flag("jobs", Count, Some("1"), "workers for multi-cell runs; output is identical for any N")];

#[rustfmt::skip]
const SERVERS: &[Flag] = &[flag("servers", Count, Some("40"), "servers per row before oversubscription")];

#[rustfmt::skip]
const CHARACTERIZE: &[Flag] = &[
    flag("model", Str, Some("BLOOM"), "model from the Table 3 zoo (see tab03_model_zoo)"),
    flag("input", Count, Some("2048"), "prompt tokens"),
    flag("output", Count, Some("256"), "generated tokens"),
    flag("batch", Count, Some("1"), "requests per batch"),
    flag("lock", Positive, None, "lock the GPU clock at this many MHz"),
    flag("cap", Positive, None, "cap GPU power at this many watts"),
];

#[rustfmt::skip]
const TRACE: &[Flag] = &[
    flag("days", Positive, Some("1"), "trace length in days"),
    flag("csv-out", Path, None, "export the request stream as Azure-schema CSV, shaped by the flags below"),
    flag("rate", NonNegative, Some("1"), "mean arrival rate in requests/s"),
    flag("amplitude", Fraction, Some("0.25"), "relative amplitude of the daily cycle"),
    flag("peak-hour", NonNegative, Some("14"), "hour of day at which traffic peaks"),
    flag("noise", NonNegative, Some("0.05"), "relative amplitude of minutes-scale rate noise"),
    flag("bursts-per-day", NonNegative, Some("6"), "expected short traffic surges per day"),
];

#[rustfmt::skip]
const INGEST: &[Flag] = &[
    flag("csv", Path, None, "the request log, when not given as the positional argument"),
    flag("extrapolate-days", Positive, Some("42"), "horizon of the extrapolated schedule in days"),
];

#[rustfmt::skip]
const EVALUATE: &[Flag] = &[
    flag("policy", Enum(POLICIES), None, "default polca; all four on the single-row --trace-csv panel"),
    flag("added", NonNegative, Some("30"), "percent more servers than the row is provisioned for"),
    flag("days", Positive, Some("2"), "simulated days of the synthetic workload"),
    flag("power-scale", Positive, Some("1"), "scale server power (drift); 1 on the --trace-csv panel"),
    flag("profile", Bool, None, "print the polca-prof table of a single-row synthetic run (obs full)"),
    flag("engine", Enum(&["legacy", "batched"]), Some("legacy"), "whole-request (§6.6) or batching engine"),
    flag("split-pools", Bool, None, "batched engine with split prefill/decode pools (§5.2)"),
];

#[rustfmt::skip]
const OBS: &[Flag] = &[
    flag("obs-out", Path, None, "write events, metrics, power, latency and Perfetto traces here (rows in rowN/)"),
    flag("obs-level", Enum(&["off", "metrics", "events", "full"]), None, "default full with --obs-out"),
    flag("req-trace", Bool, None, "trace each request: TTFT/TBT/queue histograms, requests.jsonl (obs ≥ events)"),
    flag("req-sample", Uint, None, "keep every Nth request record (0 keeps all; implies --req-trace)"),
];

#[rustfmt::skip]
const ENERGY: &[Flag] = &[
    flag("carbon-trace", Path, None, "energy/carbon ledger on an hour,carbon_g_per_kwh CSV signal"),
    flag("carbon-diurnal", Bool, None, "energy/carbon ledger on the built-in diurnal carbon signal"),
    flag("pue", Str, None, "per-datacenter PUEs X[,Y,...], each ≥ 1 (default 1.25)"),
    flag("carbon-budget", NonNegative, None, "with --watch, alert above this many gCO2e per hour"),
    flag("carbon-per-token", NonNegative, None, "with --watch, alert above this many gCO2e per token"),
];

#[rustfmt::skip]
const WATCH: &[Flag] = &[
    flag("watch", Bool, None, "alerting/incident plane on the delayed OOB telemetry (incidents.jsonl, report.md)"),
    flag("watch-rules", Path, None, "alert rules file replacing the built-in rules"),
];

#[rustfmt::skip]
const SITE: &[Flag] = &[
    flag("rows", Count, Some("1"), "rows per datacenter; more than one row or datacenter runs a site"),
    flag("datacenters", Count, Some("1"), "datacenters on the site"),
    flag("rows-per-pdu", Count, Some("2"), "rows behind each PDU"),
    flag("enforce-budgets", Bool, None, "brake rows behind an overloaded PDU, datacenter or site"),
    flag("fleet-threads", Uint, Some("1"), "threads stepping rows (0 = all cores); output is identical"),
    flag("site-budget-mw", NonNegative, None, "cap the site at this many megawatts"),
    flag("oversub-dc", NonNegative, None, "datacenter budget = provisioned / (1 + X/100)"),
    flag("oversub-site", NonNegative, None, "site budget = provisioned / (1 + X/100)"),
];

#[rustfmt::skip]
const REPLAY: &[Flag] = &[
    flag("trace-csv", Path, None, "replay this request log instead of the synthetic workload"),
    flag("rate-scale", Positive, Some("1"), "multiply the replayed arrival rate"),
    flag("time-scale", Positive, Some("1"), "stretch (above 1) or compress replayed time"),
];

#[rustfmt::skip]
const PLAN: &[Flag] = &[flag("days", Positive, Some("2"), "simulated days per oversubscription level")];

#[rustfmt::skip]
const PROFILE: &[Flag] = &[
    flag("reps", Count, Some("3"), "profiled repetitions of the study"),
    flag("out", Path, None, "write prof.json, prof.folded (speedscope) and prof.trace.json here"),
];

/// Every subcommand, in help order.
#[rustfmt::skip]
pub(crate) const COMMANDS: &[Command] = &[
    Command { name: "characterize", groups: &[CHARACTERIZE],
              summary: "profile one request shape on a simulated A100 group (§4.2)" },
    Command { name: "trace", groups: &[TRACE, SEED], summary: "synthesize a production-shaped power trace (§6.4)" },
    Command { name: "ingest", groups: &[INGEST, SEED],
              summary: "<trace.csv>: report a request log's statistics and fit the generator to it" },
    Command { name: "evaluate", groups: &[EVALUATE, SEED, OBS, ENERGY, WATCH, SITE, JOBS, REPLAY, SERVERS],
              summary: "run one policy at one oversubscription level (§6.5–6.6)" },
    Command { name: "plan", groups: &[PLAN, SEED, SERVERS, JOBS],
              summary: "find the SLO-safe oversubscription maximum (Figure 13)" },
    Command { name: "profile", groups: &[SEED, PROFILE],
              summary: "print the polca-prof attribution table of the quick-demo study" },
    Command { name: "help", groups: &[], summary: "print this text" },
];

/// A parsed and checked command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    command: &'static Command,
    values: BTreeMap<&'static str, String>,
    positionals: Vec<String>,
}

impl Invocation {
    /// The subcommand name.
    pub fn command(&self) -> &'static str {
        self.command.name
    }

    /// Arguments that are not flags (e.g. the CSV path in
    /// `polca-cli ingest trace.csv`), in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether the flag was given on the command line.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The flag's checked value, or its table default, as `T`; `None`
    /// when it has neither.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = match self.values.get(name) {
            Some(raw) => raw.as_str(),
            None => self.command.flag(name)?.default?,
        };
        raw.parse().ok()
    }

    /// The value of a flag the table gives a default.
    ///
    /// # Panics
    ///
    /// Panics if this subcommand declares no flag `name` with a default
    /// that parses as `T`: a bug in the table, not in the input.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .expect("the table gives the flag a default of this type")
    }
}

/// Parses `argv[1..]` into an [`Invocation`], checking every flag
/// against the subcommand's table.
///
/// # Errors
///
/// [`CliError::MissingCommand`] / [`CliError::UnknownCommand`] for the
/// subcommand, [`CliError::UnknownFlag`] for a flag it does not
/// declare, [`CliError::MissingValue`] for a trailing valued flag, and
/// [`CliError::BadValue`] for a value outside the flag's kind.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, CliError> {
    let mut args = args.into_iter();
    let name = args.next().ok_or(CliError::MissingCommand)?;
    let help = matches!(name.as_str(), "--help" | "-h");
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name || (help && c.name == "help"))
        .ok_or(CliError::UnknownCommand(name))?;
    let mut values = BTreeMap::new();
    let mut positionals = Vec::new();
    while let Some(arg) = args.next() {
        let Some(given) = arg.strip_prefix("--") else {
            positionals.push(arg);
            continue;
        };
        let flag = command.flag(given).ok_or_else(|| CliError::UnknownFlag {
            command: command.name.to_string(),
            flag: given.to_string(),
        })?;
        let value = if flag.kind == Bool {
            String::new()
        } else {
            let raw = args
                .next()
                .ok_or_else(|| CliError::MissingValue(flag.name.to_string()))?;
            flag.kind.check(&raw).ok_or(CliError::BadValue {
                flag: flag.name.to_string(),
                value: raw,
            })?
        };
        values.insert(flag.name, value);
    }
    Ok(Invocation {
        command,
        values,
        positionals,
    })
}

/// Help text generated from the flag table: one subcommand's section
/// when `command` names one, otherwise every subcommand's.
pub fn help(command: Option<&str>) -> String {
    let mut out = String::from(
        "polca-cli — power management for LLM clusters (ASPLOS'24 reproduction)\n\n\
         USAGE: polca-cli <command> [--flag value]...\n\n",
    );
    let only = COMMANDS
        .iter()
        .find(|c| Some(c.name) == command && !c.groups.is_empty());
    if only.is_none() {
        out.push_str(
            "A flag the command does not declare, or a value outside the flag's range,\n\
             is an error (exit 1) reported before anything runs.\n\nCOMMANDS\n",
        );
    }
    for cmd in COMMANDS.iter().filter(|c| only.is_none_or(|o| o == *c)) {
        out.push_str(&format!("  {:<13} {}\n", cmd.name, cmd.summary));
        for f in cmd.flags() {
            let default = f.default.map(|d| format!(" [default: {d}]"));
            let default = default.unwrap_or_default();
            let placeholder = f.kind.placeholder();
            out.push_str(&format!("    --{}{placeholder}{default}\n", f.name));
            out.push_str(&format!("        {}\n", f.help));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Each kind's range, written out apart from [`Kind::check`].
    fn in_range(kind: Kind, raw: &str) -> bool {
        let x: f64 = raw.parse().unwrap_or(f64::NAN);
        match kind {
            Bool => raw.is_empty(),
            Uint => raw.parse::<u64>().is_ok(),
            Count => raw
                .parse::<u64>()
                .is_ok_and(|n| (1..=u64::from(u32::MAX)).contains(&n)),
            NonNegative => x.is_finite() && x >= 0.0,
            Positive => x.is_finite() && x > 0.0,
            Fraction => (0.0..=1.0).contains(&x),
            Enum(names) => names.contains(&raw),
            Path | Str => true,
        }
    }

    #[test]
    fn defaults_lie_in_range_and_names_are_unique_per_command() {
        for cmd in COMMANDS {
            for f in cmd.flags() {
                let twins = cmd.flags().filter(|g| g.name == f.name).count();
                assert_eq!(twins, 1, "{} declares --{} twice", cmd.name, f.name);
                if let Some(default) = f.default {
                    assert_eq!(f.kind.check(default).as_deref(), Some(default));
                    assert!(in_range(f.kind, default), "{} --{}", cmd.name, f.name);
                }
            }
        }
    }

    /// Argument words that straddle every kind's range, plus junk.
    #[rustfmt::skip]
    const WORDS: &[&str] = &[
        "-1", "0", "1", "0.5", "1.5", "-0", "nan", "inf", "-inf", "1e400", "4294967296",
        "18446744073709551616", "", "--", "-", "polca", "BATCHED", "full", "2,3", "\u{0}", "ü",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `parse_args` never panics, and every value it accepts lies in
        /// its flag's declared range.
        #[test]
        fn parsed_values_lie_in_their_declared_range(
            command in 0usize..=COMMANDS.len(),
            pairs in prop::collection::vec((0usize..1024, 0usize..5, any::<u32>(), -1e9f64..1e9), 0..5),
        ) {
            // Each pair is a flag, mostly one the command declares, then
            // a candidate value (or none, so flags also meet flags).
            let own: Vec<&Flag> = COMMANDS.get(command).map_or(vec![], |c| c.flags().collect());
            let any: Vec<&Flag> = COMMANDS.iter().flat_map(Command::flags).collect();
            let mut argv = vec![COMMANDS.get(command).map_or("bogus", |c| c.name).to_string()];
            for (i, pick, n, x) in pairs {
                let pool = if own.is_empty() || i % 8 == 0 { &any } else { &own };
                let flag = pool[i % pool.len()];
                argv.push(format!("--{}", flag.name));
                match (pick, flag.kind) {
                    (0, _) => argv.push(WORDS[i % WORDS.len()].to_string()),
                    (1, _) => argv.push(n.to_string()),
                    (2, _) => argv.push(x.to_string()),
                    (3, Enum(names)) => argv.push(names[n as usize % names.len()].to_uppercase()),
                    (3, Uint | Count) => argv.push((n % 100).to_string()),
                    (3, NonNegative | Positive | Fraction) => argv.push(format!("0.{}", n % 1000)),
                    (3, Path | Str) => argv.push(x.to_string()),
                    _ => {}
                }
            }
            if let Ok(inv) = parse_args(argv.clone()) {
                for (name, raw) in &inv.values {
                    let kind = inv.command.flag(name).map(|f| f.kind);
                    prop_assert!(
                        kind.is_some_and(|k| in_range(k, raw)),
                        "{:?}: --{} = {:?}",
                        argv,
                        name,
                        raw
                    );
                }
            }
        }
    }
}
