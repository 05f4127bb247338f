//! # kcli — the `krad` command-line tool
//!
//! A downstream-user front end over the whole workspace:
//!
//! ```text
//! krad generate --kind mix --k 2 --jobs 20 --out jobs.json
//! krad inspect jobs.json
//! krad bounds jobs.json --machine 4,2
//! krad simulate jobs.json --machine 4,2 --scheduler k-rad --gantt
//! krad adversarial --k 2 --p 4 --m 16 --run
//! ```
//!
//! Every subcommand is a plain function over a parsed [`args::ArgMap`],
//! so the whole surface is unit-testable without spawning processes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod service;

use args::Spec;
use std::io::{self, Write};
use std::process::ExitCode;

/// A subcommand's handler.
type Handler = fn(&args::ArgMap) -> Result<String, String>;

/// Every subcommand: its name, the `--options` (taking a value) and
/// `--flags` it accepts, and the function that runs it.
#[rustfmt::skip]
const COMMANDS: &[(Spec, Handler)] = &[
    (Spec::new("generate", &["kind", "k", "jobs", "seed", "mean-size", "trace", "arrivals", "out"], &[]),
        commands::generate),
    (Spec::new("inspect", &[], &[]), commands::inspect),
    (Spec::new("bounds", &["machine"], &[]), commands::bounds),
    (Spec::new("simulate", &["machine", "scheduler", "policy", "quantum", "time-policy", "feedback",
            "seed", "svg", "json", "telemetry"], &["gantt", "timeline", "telemetry-summary"]),
        commands::simulate_cmd),
    (Spec::new("compare", &["machine", "policy", "seed"], &[]), commands::compare),
    (Spec::new("verify", &["machine", "policy", "seed"], &[]), commands::verify),
    (Spec::new("adversarial", &["k", "p", "m"], &["run"]), commands::adversarial),
    (Spec::new("profile", &["kind", "quantum", "time-policy"], &[]), commands::profile),
    (Spec::new("timeline", &["out", "kind", "scheduler", "quantum", "time-policy", "seed"], &[]),
        commands::timeline),
    (Spec::new("serve", &["machine", "scheduler", "policy", "quantum", "time-policy", "seed",
            "queue-capacity", "max-inflight", "tick-ms", "addr", "unix", "metrics-addr",
            "flight-capacity", "flight-dump", "journal-dir", "fsync", "snapshot-every",
            "slo-factor", "workers", "session-rate", "session-burst"], &[]),
        service::serve),
    (Spec::new("session", &["addr", "scheduler", "policy", "quantum", "seed", "queue-capacity",
            "max-inflight", "rate", "burst", "trace-out"], &["verify"]),
        service::session),
    (Spec::new("submit", &["addr", "session", "scenario", "jobs", "seed", "cancel", "trace-out"],
            &["watch", "status", "stats", "drain", "verify"]),
        service::submit),
    (Spec::new("loadgen", &["addr", "clients", "jobs", "chunk", "arrivals", "seed", "k", "mean-size",
            "pace-ms", "stats-out", "sessions"], &[]),
        service::loadgen),
    (Spec::new("stats", &["addr", "session", "interval-ms", "count"], &["watch"]), service::stats),
    (Spec::new("metrics", &["addr"], &[]), service::metrics),
    (Spec::new("trace", &["addr", "session", "flight", "job"], &[]), service::trace),
    (Spec::new("flight", &["trace"], &[]), service::flight),
    (Spec::new("journal", &[], &[]), service::journal),
    (Spec::new("recover", &[], &[]), service::recover),
];

/// The [`COMMANDS`] entry named `name`.
fn command(name: &str) -> Option<&'static (Spec, Handler)> {
    COMMANDS.iter().find(|(spec, _)| spec.name == name)
}

/// Top-level dispatch: returns the text to print, or a usage error.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(usage());
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        return Ok(usage());
    }
    let (spec, handler) =
        command(cmd).ok_or_else(|| format!("unknown subcommand '{cmd}'\n\n{}", usage()))?;
    handler(&args::ArgMap::parse(rest, spec)?)
}

/// The `krad` entry point: run `argv` and print its text to stdout, or
/// its error to stderr. A reader that stops early (`krad … | head`) is
/// not an error.
pub fn main(argv: &[String]) -> ExitCode {
    match run(argv) {
        Ok(text) => {
            let mut out = io::stdout().lock();
            match writeln!(out, "{text}").and_then(|()| out.flush()) {
                Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                    eprintln!("krad: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `parts` as the arguments of subcommand `cmd`.
#[cfg(test)]
pub(crate) fn parse_for(cmd: &str, parts: &[&str]) -> args::ArgMap {
    let (spec, _) = command(cmd).unwrap();
    let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    args::ArgMap::parse(&argv, spec).unwrap()
}

/// The usage text.
pub fn usage() -> String {
    "krad — K-RAD scheduling toolbox (He/Sun/Hsu ICPP'07 reproduction)

USAGE:
  krad generate --kind <mix|pipeline|mapreduce|server|heavy-tail|swf> \\
                [--k K] [--jobs N] [--seed S] [--mean-size M] [--trace FILE.swf] \\
                [--arrivals batch|poisson:<rate>|bursty] --out FILE
  krad inspect  FILE
  krad bounds   FILE --machine P1,P2,...
  krad simulate FILE --machine P1,P2,... [--scheduler NAME] [--policy NAME]
                [--quantum Q] [--time-policy unit|event] [--feedback DELTA]
                [--seed S] [--gantt] [--timeline]
                [--svg FILE] [--json FILE]
                [--telemetry FILE.jsonl] [--telemetry-summary]
  krad compare  FILE --machine P1,P2,... [--policy NAME] [--seed S]
  krad verify   FILE --machine P1,P2,... [--policy NAME] [--seed S]
  krad adversarial --k K --p P --m M [--run]
  krad profile  [--kind t12|large-dag|many-jobs|swf|trace-sparse] [--quantum Q]
                [--time-policy unit|event]
  krad timeline --out FILE.json [--kind t12|large-dag|many-jobs|swf|trace-sparse]
                [--scheduler NAME] [--quantum Q] [--time-policy unit|event] [--seed S]
  krad serve    --machine P1,P2,... [--scheduler NAME] [--policy NAME] [--quantum Q]
                [--time-policy unit|event]
                [--seed S] [--queue-capacity N] [--max-inflight N] [--tick-ms MS]
                [--addr HOST:PORT] [--unix PATH] [--metrics-addr HOST:PORT]
                [--flight-capacity N] [--flight-dump FILE.jsonl]
                [--journal-dir DIR] [--fsync always|interval[:ms]|never]
                [--snapshot-every N] [--slo-factor X] [--workers N]
                [--session-rate R] [--session-burst N]
  krad session  open|close|drain|stats NAME --addr HOST:PORT
                [--scheduler NAME] [--policy NAME] [--quantum Q] [--seed S]
                [--queue-capacity N] [--max-inflight N] [--rate R] [--burst N]
                [--verify] [--trace-out FILE]
  krad submit   --addr HOST:PORT [--session NAME]
                (FILE [--watch] | --scenario NAME [--jobs N] [--seed S]
                | --status | --stats | --cancel ID
                | --drain [--verify] [--trace-out FILE])
  krad loadgen  --addr HOST:PORT [--clients N] [--jobs N] [--chunk N]
                [--arrivals burst|poisson:<rate>|heavy-tail:<alpha>|trace]
                [--seed S] [--k K] [--mean-size M] [--pace-ms MS] [--stats-out FILE]
                [--sessions N]
  krad stats    --addr HOST:PORT [--session NAME] [--watch [--interval-ms MS] [--count N]]
  krad metrics  --addr HOST:PORT
  krad trace    --addr HOST:PORT JOB [--session NAME] | --flight FILE.jsonl [--job N]
  krad flight   FILE.jsonl [--trace TRACE.json]
  krad journal  inspect FILE.kj
  krad recover  DIR

SCHEDULERS: k-rad equi deq-only rr-only greedy-fcfs las random-rr
POLICIES:   fifo lifo random critical-first critical-last"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&sv(&["help"])).unwrap().contains("USAGE"));
        let err = run(&sv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown subcommand"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn misspelled_options_are_refused() {
        let err = run(&sv(&[
            "simulate",
            "w.json",
            "--machine",
            "3,2",
            "--schedular",
            "equi",
        ]))
        .unwrap_err();
        assert_eq!(err, "unknown option '--schedular' for 'simulate'");
        let err = run(&sv(&["inspect", "w.json", "--bogus", "1"])).unwrap_err();
        assert!(err.contains("'--bogus'"), "{err}");
    }

    #[test]
    fn every_option_in_the_usage_is_accepted_by_its_subcommand() {
        let text = usage();
        let mut checked = 0;
        for block in text.split("\n  krad ").skip(1) {
            let name = block.split_whitespace().next().unwrap();
            let (spec, _) =
                command(name).unwrap_or_else(|| panic!("usage shows unknown subcommand '{name}'"));
            let block = block.split("\n\n").next().unwrap();
            for word in block.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(option) = word.strip_prefix("--") {
                    assert!(
                        spec.options.contains(&option) || spec.flags.contains(&option),
                        "'{name}' refuses --{option}, which its usage shows"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 80, "only {checked} options found in the usage");
    }

    #[test]
    fn end_to_end_generate_inspect_simulate() {
        let dir = std::env::temp_dir().join(format!("krad-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.json");
        let out = run(&sv(&[
            "generate",
            "--kind",
            "mix",
            "--k",
            "2",
            "--jobs",
            "6",
            "--out",
            file.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("6 jobs"));

        let out = run(&sv(&["inspect", file.to_str().unwrap()])).unwrap();
        assert!(out.contains("job 0"));

        let out = run(&sv(&["bounds", file.to_str().unwrap(), "--machine", "3,2"])).unwrap();
        assert!(out.contains("lower bound"));

        let out = run(&sv(&[
            "simulate",
            file.to_str().unwrap(),
            "--machine",
            "3,2",
            "--scheduler",
            "k-rad",
            "--gantt",
            "--timeline",
        ]))
        .unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains("α1 p0"));

        let out = run(&sv(&["verify", file.to_str().unwrap(), "--machine", "3,2"])).unwrap();
        assert!(out.contains("Theorem 3: HOLDS"), "{out}");
        assert!(out.contains("all applicable guarantees hold"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adversarial_runs() {
        let out = run(&sv(&[
            "adversarial",
            "--k",
            "2",
            "--p",
            "4",
            "--m",
            "4",
            "--run",
        ]))
        .unwrap();
        assert!(out.contains("bound 2.750"));
        assert!(out.contains("ratio"));
    }
}
