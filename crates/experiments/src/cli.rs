//! Argument parsing for the `experiments` binary, separated from the
//! binary so it can be unit-tested.

use crate::config;
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand (`table1`, `fig2`…`fig6`, `all`, `ext`, `ext-*`,
    /// `trace`, `analyze`, `diff`, `watch`).
    pub command: String,
    /// Whether to run the DES alongside the analytic path.
    pub simulate: bool,
    /// Jobs per replication for simulated runs.
    pub jobs: u64,
    /// Replications for simulated runs.
    pub replications: u32,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
    /// Mirror telemetry events to stderr (`trace` subcommand).
    pub verbose: bool,
    /// Positional input path (`analyze <log>`, `diff <A> <B>`);
    /// defaults per command.
    pub input: Option<PathBuf>,
    /// Second positional input path (`diff <A> <B>` only).
    pub input2: Option<PathBuf>,
    /// TCP port for the live endpoint (`watch` subcommand; 0 =
    /// ephemeral, printed at startup).
    pub port: u16,
    /// Episodes to replay (`watch` subcommand).
    pub iterations: u32,
    /// Milliseconds to keep serving after the last episode (`watch`
    /// subcommand) so external scrapers get a guaranteed window.
    pub linger_ms: u64,
}

/// The usage string.
pub fn usage() -> String {
    "usage: experiments <table1|fig2|fig3|fig4|fig5|fig6|all|ext|\
     ext-service|ext-stackelberg|ext-dynamics|ext-noise|ext-multicore|ext-poa|ext-burstiness|ext-policies|ext-tails|ext-churn|ext-anytime|ext-async|trace|analyze|diff|watch> \
     [LOG] [LOG_B] [--simulate] [--jobs N] [--replications R] [--out-dir DIR] [--verbose] [--port P] [--iterations N] [--linger MS]\n\
     `analyze [LOG]` profiles a span trace (default LOG: <out-dir>/trace_table1.jsonl);\n\
     `diff A B` compares two trace logs or result directories (reweighted event\n\
     counts, account.* sums, span structure/wall time) and prints a\n\
     machine-readable verdict line;\n\
     `watch` serves /metrics /healthz /trace/recent live during an observed replay\n\
     (--port 0 picks an ephemeral port; --linger keeps serving MS after the last episode);\n\
     `--out` is accepted as an alias for `--out-dir`"
        .to_string()
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// A human-readable message including the usage string.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut args = args.into_iter();
    let command = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        command,
        simulate: false,
        jobs: 1_000_000,
        replications: 5,
        out: PathBuf::from(config::RESULTS_DIR),
        verbose: false,
        input: None,
        input2: None,
        port: 0,
        iterations: 28,
        linger_ms: 0,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--simulate" => opts.simulate = true,
            "--verbose" => opts.verbose = true,
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err(format!("--jobs must be at least 1\n{}", usage()));
                }
            }
            "--replications" => {
                opts.replications = args
                    .next()
                    .ok_or("--replications needs a value")?
                    .parse()
                    .map_err(|e| format!("--replications: {e}"))?;
                if opts.replications == 0 {
                    return Err(format!("--replications must be at least 1\n{}", usage()));
                }
            }
            "--port" => {
                opts.port = args
                    .next()
                    .ok_or("--port needs a value")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--iterations" => {
                opts.iterations = args
                    .next()
                    .ok_or("--iterations needs a value")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?;
            }
            "--linger" => {
                opts.linger_ms = args
                    .next()
                    .ok_or("--linger needs a value")?
                    .parse()
                    .map_err(|e| format!("--linger: {e}"))?;
            }
            "--out" | "--out-dir" => {
                opts.out = PathBuf::from(args.next().ok_or(format!("{a} needs a value"))?);
            }
            other if !other.starts_with('-') && opts.input.is_none() => {
                opts.input = Some(PathBuf::from(other));
            }
            // Only `diff` takes a second positional.
            other if !other.starts_with('-') && opts.command == "diff" && opts.input2.is_none() => {
                opts.input2 = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Expands a command into the concrete experiment list (handles the
/// `all` and `ext` umbrellas).
pub fn expand_command(command: &str) -> Vec<&str> {
    match command {
        "all" => vec!["table1", "fig2", "fig3", "fig4", "fig5", "fig6"],
        "ext" => vec![
            "ext-service",
            "ext-stackelberg",
            "ext-dynamics",
            "ext-noise",
            "ext-multicore",
            "ext-poa",
            "ext-burstiness",
            "ext-policies",
            "ext-tails",
            "ext-churn",
            "ext-anytime",
            "ext-async",
        ],
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = parse(args(&["fig4"])).unwrap();
        assert_eq!(o.command, "fig4");
        assert!(!o.simulate);
        assert!(!o.verbose);
        assert_eq!(o.jobs, 1_000_000);
        assert_eq!(o.replications, 5);
        assert_eq!(o.out, PathBuf::from("results"));
        assert_eq!(o.input, None);
        assert_eq!(o.input2, None);
        assert_eq!(o.port, 0);
        assert_eq!(o.iterations, 28);
        assert_eq!(o.linger_ms, 0);
    }

    #[test]
    fn watch_flags_parse() {
        let o = parse(args(&[
            "watch",
            "--port",
            "9184",
            "--iterations",
            "12",
            "--linger",
            "5000",
        ]))
        .unwrap();
        assert_eq!(o.command, "watch");
        assert_eq!(o.port, 9184);
        assert_eq!(o.iterations, 12);
        assert_eq!(o.linger_ms, 5000);
        assert!(parse(args(&["watch", "--port"])).is_err());
        assert!(parse(args(&["watch", "--port", "notaport"])).is_err());
        assert!(parse(args(&["watch", "--iterations", "-1"])).is_err());
        assert!(parse(args(&["watch", "--linger"])).is_err());
    }

    #[test]
    fn analytic_flag_is_an_unknown_argument() {
        // `--simulate` always runs the DES; no flag picks another engine.
        let err = parse(args(&["fig4", "--simulate", "--analytic"])).unwrap_err();
        assert!(
            err.starts_with("unknown argument `--analytic`") && err.contains("usage:"),
            "{err}"
        );
        assert!(!usage().contains("--analytic"));
    }

    #[test]
    fn out_dir_is_an_alias_for_out() {
        let o = parse(args(&["trace", "--out-dir", "/tmp/y"])).unwrap();
        assert_eq!(o.out, PathBuf::from("/tmp/y"));
        assert!(parse(args(&["trace", "--out-dir"])).is_err());
    }

    #[test]
    fn analyze_takes_a_positional_log_path() {
        let o = parse(args(&["analyze", "results/trace_table1.jsonl"])).unwrap();
        assert_eq!(o.command, "analyze");
        assert_eq!(o.input, Some(PathBuf::from("results/trace_table1.jsonl")));
        // A second positional argument is still an error outside `diff`.
        assert!(parse(args(&["analyze", "a.jsonl", "b.jsonl"])).is_err());
        // And the path is optional.
        assert_eq!(parse(args(&["analyze"])).unwrap().input, None);
    }

    #[test]
    fn diff_takes_two_positional_paths() {
        let o = parse(args(&["diff", "runs/a", "runs/b"])).unwrap();
        assert_eq!(o.command, "diff");
        assert_eq!(o.input, Some(PathBuf::from("runs/a")));
        assert_eq!(o.input2, Some(PathBuf::from("runs/b")));
        // A third positional is an error even for diff.
        assert!(parse(args(&["diff", "a", "b", "c"])).is_err());
    }

    #[test]
    fn all_flags_parse() {
        let o = parse(args(&[
            "fig5",
            "--simulate",
            "--jobs",
            "5000",
            "--replications",
            "2",
            "--out",
            "/tmp/x",
            "--verbose",
        ]))
        .unwrap();
        assert!(o.simulate);
        assert!(o.verbose);
        assert_eq!(o.jobs, 5000);
        assert_eq!(o.replications, 2);
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn missing_command_and_bad_flags_error() {
        assert!(parse(args(&[])).is_err());
        assert!(parse(args(&["fig2", "--jobs"])).is_err());
        assert!(parse(args(&["fig2", "--jobs", "abc"])).is_err());
        assert!(parse(args(&["fig2", "--frobnicate"])).is_err());
        assert!(parse(args(&["fig2", "--out"])).is_err());
    }

    #[test]
    fn zero_jobs_or_replications_is_a_usage_error() {
        for flag in ["--jobs", "--replications"] {
            let err = parse(args(&["fig4", "--simulate", flag, "0"])).unwrap_err();
            assert!(err.contains(flag) && err.contains("usage:"), "{err}");
        }
    }

    /// Every command and flag, plus boundary, overflowing, non-numeric,
    /// empty and non-ASCII values.
    const TOKENS: &[&str] = &[
        "table1",
        "fig4",
        "all",
        "ext",
        "ext-async",
        "trace",
        "analyze",
        "diff",
        "watch",
        "bench",
        "--simulate",
        "--analytic",
        "--verbose",
        "--jobs",
        "--replications",
        "--out",
        "--out-dir",
        "--port",
        "--iterations",
        "--linger",
        "0",
        "1",
        "-1",
        "65536",
        "18446744073709551616",
        "NaN",
        "",
        "--",
        "-",
        "ρ=0.6",
        "日本語",
        "results",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]
        #[test]
        fn random_argument_vectors_parse_or_err_without_panicking(
            picks in prop::collection::vec(0..TOKENS.len(), 0..8)
        ) {
            if let Ok(o) = parse(picks.iter().map(|&i| TOKENS[i].to_string())) {
                prop_assert!(o.jobs >= 1 && o.replications >= 1, "{o:?}");
            }
        }
    }

    #[test]
    fn umbrellas_expand() {
        assert_eq!(expand_command("all").len(), 6);
        let ext = expand_command("ext");
        assert_eq!(ext.len(), 12);
        assert!(ext.iter().all(|c| c.starts_with("ext-")));
        assert_eq!(expand_command("fig3"), vec!["fig3"]);
    }

    #[test]
    fn usage_names_every_command() {
        let u = usage();
        for c in expand_command("all")
            .iter()
            .chain(expand_command("ext").iter())
            .chain(["trace", "analyze", "diff", "watch"].iter())
        {
            assert!(u.contains(c), "usage missing {c}");
        }
    }
}
