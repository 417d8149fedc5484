//! The `lintcheck` binary: sweep the workspace, print findings, exit
//! non-zero when anything fresh (non-baselined) turns up.
//!
//! ```text
//! cargo run -p lintcheck                      # human output, auto baseline
//! cargo run -p lintcheck -- --json            # machine output for CI
//! cargo run -p lintcheck -- --no-baseline     # strict: ignore the baseline
//! cargo run -p lintcheck -- --write-baseline  # record current findings
//! cargo run -p lintcheck -- --root ../ws      # sweep another tree
//! ```
//!
//! The baseline lives at `<root>/lintcheck.baseline`; a missing file is an
//! empty baseline.

use lintcheck::baseline::Baseline;
use lintcheck::{jsonout, Config, LintId};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    write_baseline: bool,
    no_baseline: bool,
    only: Vec<LintId>,
    baseline_path: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::new(),
        json: false,
        write_baseline: false,
        no_baseline: false,
        only: Vec::new(),
        baseline_path: None,
    };
    let mut root: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--write-baseline" => args.write_baseline = true,
            "--no-baseline" => args.no_baseline = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a file path")?;
                args.baseline_path = Some(PathBuf::from(v));
            }
            "--lint" => {
                let v = it.next().ok_or("--lint needs a lint name")?;
                let id = LintId::from_name(&v)
                    .ok_or_else(|| format!("unknown lint `{v}` (see --help)"))?;
                args.only.push(id);
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    args.root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    Ok(args)
}

fn print_help() {
    println!(
        "lintcheck: the workspace's own static-analysis pass\n\n\
         USAGE: lintcheck [--root DIR] [--json] [--no-baseline] \
         [--write-baseline] [--baseline FILE] [--lint NAME]...\n\n\
         Lints: nondet-iter, panic-path, metric-registry, dependency-policy,\n\
         clock-hygiene, panic-propagation\n\
         (allow-marker hygiene always runs; the last two are\n\
         interprocedural — they build a workspace call graph first).\n\
         Default baseline file: <root>/lintcheck.baseline; missing file =\n\
         empty baseline."
    );
}

/// Workspace root above the current directory, so the binary works from
/// any crate directory.
fn find_workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    lintcheck::walk::find_root_above(&cwd)
        .ok_or_else(|| "no workspace root found above the current directory; pass --root".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lintcheck: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = Config::for_workspace(args.root.clone());
    if !args.only.is_empty() {
        cfg.lints = args.only.clone();
    }

    let baseline_path =
        args.baseline_path.clone().unwrap_or_else(|| args.root.join("lintcheck.baseline"));
    let baseline = if args.no_baseline || args.write_baseline {
        Baseline::default()
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => Baseline::parse(&text),
            Err(_) => Baseline::default(),
        }
    };

    let report = match lintcheck::run(&cfg, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lintcheck: sweep failed: {e}");
            return ExitCode::from(2);
        }
    };

    if args.write_baseline {
        let text = Baseline::render(&report.fresh);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("lintcheck: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("wrote {} finding(s) to {}", report.fresh.len(), baseline_path.display());
        return ExitCode::SUCCESS;
    }

    // Write through a locked handle and swallow errors: a consumer closing
    // the pipe early (`lintcheck | head`) must not turn into a panic — the
    // exit code below still reflects the sweep.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if args.json {
        let _ = writeln!(out, "{}", jsonout::report_json(&report));
    } else {
        for f in &report.fresh {
            let _ = writeln!(out, "{f}");
            if !f.excerpt.is_empty() {
                let _ = writeln!(out, "    {}", f.excerpt);
            }
        }
        let _ = writeln!(
            out,
            "lintcheck: {} file(s) scanned, call graph {}/{} fns/edges, \
             {} finding(s) ({} baselined, {} fresh)",
            report.files_scanned,
            report.callgraph_nodes,
            report.callgraph_edges,
            report.fresh.len() + report.baselined.len(),
            report.baselined.len(),
            report.fresh.len()
        );
    }

    if report.fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
