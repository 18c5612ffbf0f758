//! The `qaoa-lint` command-line front end.
//!
//! ```text
//! qaoa-lint --workspace                # lint every crates/*/src file
//! qaoa-lint --workspace --format json  # machine-readable findings
//! qaoa-lint path/to/file.rs ...        # lint specific files
//! ```
//!
//! Exit codes: `0` clean (every site passes or carries a justified
//! `lint:allow`), `1` any violation or marker error, `2` usage or I/O
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::{find_root, render_json, render_text, RuleFilter};

const USAGE: &str = "\
qaoa-lint: static analysis for this workspace's determinism/robustness invariants

USAGE:
    qaoa-lint --workspace [OPTIONS]
    qaoa-lint [OPTIONS] FILE.rs...

OPTIONS:
    --workspace            lint every crates/*/src/**/*.rs under the workspace root
    --root PATH            workspace root (default: walk up from the current directory)
    --only RULES           comma-separated rules to run (default: all)
    --skip RULES           comma-separated rules to skip
    --format FORMAT        `text` (default) or `json`
    --list-rules           print every rule with its rationale and exit
    -h, --help             print this help

Any finding fails the run (exit 1). The only way to silence a site is a
justified marker comment at the end of that line or on its own line above it:
    // lint:allow(<rule>) <why this site is sound>
";

struct Cli {
    workspace: bool,
    root: Option<PathBuf>,
    filter: RuleFilter,
    json: bool,
    list_rules: bool,
    files: Vec<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workspace: false,
        root: None,
        filter: RuleFilter::default(),
        json: false,
        list_rules: false,
        files: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = (*v).clone();
                    it.next();
                    Ok(v)
                }
                _ => Err(format!("{flag} needs a value")),
            }
        };
        match arg.as_str() {
            "--workspace" => cli.workspace = true,
            "--root" => cli.root = Some(PathBuf::from(value_of("--root")?)),
            "--only" => cli
                .filter
                .only
                .extend(value_of("--only")?.split(',').map(|s| s.trim().to_string())),
            "--skip" => cli
                .filter
                .skip
                .extend(value_of("--skip")?.split(',').map(|s| s.trim().to_string())),
            "--format" => match value_of("--format")?.as_str() {
                "text" => cli.json = false,
                "json" => cli.json = true,
                other => return Err(format!("unknown format `{other}` (text or json)")),
            },
            "--list-rules" => cli.list_rules = true,
            "-h" | "--help" => return Err(String::new()), // sentinel: print usage, exit 0
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => cli.files.push(PathBuf::from(file)),
        }
    }
    if !cli.list_rules && !cli.workspace && cli.files.is_empty() {
        return Err("nothing to lint: pass --workspace or file paths".into());
    }
    if cli.workspace && !cli.files.is_empty() {
        return Err("--workspace and explicit files are mutually exclusive".into());
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    if cli.list_rules {
        for rule in lint::rules::RULES {
            println!("{:<18} {}", rule.name, rule.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let rules = cli.filter.resolve()?;
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = match &cli.root {
        Some(r) => r.clone(),
        None => find_root(&cwd).unwrap_or_else(|| cwd.clone()),
    };

    let outcome = if cli.workspace {
        lint::scan_workspace(&root, &rules)?
    } else {
        lint::scan_files(&root, &cli.files, &rules)?
    };

    if cli.json {
        print!("{}", render_json(&outcome));
    } else {
        print!("{}", render_text(&outcome));
    }
    if outcome.violations.is_empty() && outcome.marker_errors.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args) {
        Ok(cli) => match run(&cli) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("qaoa-lint: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) if e.is_empty() => {
            // --help: usage on stdout, success — same contract the bench
            // CLI settled on in PR 4.
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qaoa-lint: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
