//! The `jas-lint` CLI.
//!
//! ```sh
//! cargo run -p jas-lint                  # report all findings, exit 0
//! cargo run -p jas-lint -- --deny        # exit 2 on any deny finding (CI)
//! cargo run -p jas-lint -- --json        # machine-readable output
//! cargo run -p jas-lint -- --sarif out.sarif
//! cargo run -p jas-lint -- --root DIR --config FILE
//! ```
//!
//! The config defaults to `lint.toml` in the scan root; a missing config
//! file means built-in defaults (every rule deny, scan `crates/`).

#![forbid(unsafe_code)]

use jas_lint::config::Config;
use jas_lint::{findings, has_deny, lint_tree, sarif};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
jas-lint — workspace determinism & invariant static analysis

USAGE:
    jas-lint [--deny] [--json] [--sarif FILE] [--root DIR] [--config FILE]

OPTIONS:
    --deny           exit with status 2 when any deny-severity finding exists
    --json           print findings as a JSON array instead of text
    --sarif FILE     additionally write findings as SARIF 2.1.0 to FILE
    --root DIR       scan base directory (default: current directory)
    --config FILE    config path (default: <root>/lint.toml; missing = defaults)
    --help           print this help
";

struct Options {
    deny: bool,
    json: bool,
    sarif: Option<PathBuf>,
    root: PathBuf,
    config: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        deny: false,
        json: false,
        sarif: None,
        root: PathBuf::from("."),
        config: None,
    };
    let mut i = 0;
    let path_arg = |args: &[String], i: &mut usize, flag: &str| {
        *i += 1;
        args.get(*i)
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => o.deny = true,
            "--json" => o.json = true,
            "--sarif" => o.sarif = Some(path_arg(args, &mut i, "--sarif")?),
            "--root" => o.root = path_arg(args, &mut i, "--root")?,
            "--config" => o.config = Some(path_arg(args, &mut i, "--config")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
        i += 1;
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let config_path = opts
        .config
        .clone()
        .unwrap_or_else(|| opts.root.join("lint.toml"));
    let cfg = if config_path.exists() {
        let text = match std::fs::read_to_string(&config_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("jas-lint: cannot read {}: {e}", config_path.display());
                return ExitCode::FAILURE;
            }
        };
        match Config::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("jas-lint: {}: {e}", config_path.display());
                return ExitCode::FAILURE;
            }
        }
    } else if opts.config.is_some() {
        eprintln!("jas-lint: config {} does not exist", config_path.display());
        return ExitCode::FAILURE;
    } else {
        Config::default()
    };

    let results = lint_tree(&cfg, &opts.root);
    if let Some(path) = &opts.sarif {
        if let Err(e) = std::fs::write(path, sarif::to_sarif(&results)) {
            eprintln!("jas-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if opts.json {
        print!("{}", findings::to_json(&results));
    } else {
        print!("{}", findings::to_text(&results));
    }
    if opts.deny && has_deny(&results) {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
