//! The CLI's `--json PATH`: the trace file is exactly the session's report,
//! staged through a temp sibling, and a path that cannot be written is a
//! one-line error that names it, raised before the run starts. An invalid
//! config is likewise one error line with nothing printed before it. Only
//! command-line mistakes are answered with the usage text; an option the
//! command does not read is one. A reader that closes stdout early ends the
//! run quietly. `iobts help` lists the defaults each command reads,
//! `iobts period` finds the HACC-IO loop period, and `iobts cluster` prints
//! the job runtimes of the Fig. 1 CSV.

use iobts::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty directory private to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iobts-cli-json-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wacomm_json(path: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["wacomm", "--ranks", "4", "--iterations", "3", "--json"])
        .arg(path)
        .output()
        .unwrap()
}

#[test]
fn json_trace_is_the_session_report() {
    let dir = scratch("ok");
    let path = dir.join("t.json");
    let out = wacomm_json(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Built the way `iobts wacomm` builds it from these flags.
    let cfg = ExpConfig::new(4, Strategy::Direct { tol: 1.1 }).with_seed(2024);
    let wc = WacommConfig {
        iterations: 3,
        ..Default::default()
    };
    let session = Session::builder(cfg)
        .workload(Wacomm::new(wc))
        .try_build()
        .unwrap();
    let want = session.try_run().unwrap().report.to_json();
    assert_eq!(fs::read_to_string(&path).unwrap(), want);
    assert!(!dir.join(".t.json.tmp").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unwritable_json_path_fails_and_names_it() {
    let dir = scratch("missing");
    let path = dir.join("missing").join("t.json");
    let out = wacomm_json(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&path.display().to_string()),
        "stderr does not name {}: {stderr}",
        path.display()
    );
    // Checked before the run: no banner, no summary, and no usage text.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "printed before failing: {stdout}");
    assert!(
        !stderr.contains("USAGE"),
        "usage text after a run error: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!dir.join("missing").exists());
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_option_value_prints_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["wacomm", "--ranks", "many"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: invalid value `many` for --ranks\n"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE"), "{stderr}");
}

/// Asserts a usage failure: exit 1, nothing on stdout, and one `error:`
/// line naming `option`, followed by the usage text.
fn assert_rejects_option(out: &Output, option: &str) {
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error: "), "{stderr}");
    assert!(first.contains(option), "{stderr}");
    assert_eq!(stderr.matches("error:").count(), 1, "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn misspelt_option_is_a_usage_error_not_a_default_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["hacc", "--rnaks", "2", "--loops", "1", "--particles", "10"])
        .output()
        .unwrap();
    assert_rejects_option(&out, "--rnaks");
}

#[test]
fn option_the_command_does_not_read_is_a_usage_error() {
    let dir = scratch("cluster");
    let path = dir.join("x.json");
    let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["cluster", "--json"])
        .arg(&path)
        .output()
        .unwrap();
    assert_rejects_option(&out, "--json");
    assert!(!path.exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn invalid_config_is_rejected_before_the_banner() {
    for cmd in ["wacomm", "hacc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
            .args([cmd, "--ranks", "0"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{cmd}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.is_empty(), "{cmd} printed before failing: {stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{cmd}: {stderr}");
        assert!(stderr.starts_with("error: "), "{cmd}: {stderr}");
    }
}

#[test]
fn too_few_wacomm_iterations_are_a_config_error_not_a_panic() {
    for iterations in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
            .args(["wacomm", "--ranks", "4", "--iterations", iterations])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--iterations {iterations}");
        assert!(out.stdout.is_empty(), "--iterations {iterations}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr,
            format!(
                "error: invalid config: iterations: need at least two iterations, \
                 got {iterations}\n"
            )
        );
    }
}

#[test]
fn hacc_without_a_loop_is_a_config_error_not_an_empty_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["hacc", "--ranks", "2", "--loops", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no banner");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: invalid config: loops: need at least one loop, got 0\n"
    );
}

#[test]
fn hacc_without_a_particle_is_a_config_error_not_a_zero_byte_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["hacc", "--ranks", "2", "--loops", "1", "--particles", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no banner");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: invalid config: particles_per_rank: need at least one particle, got 0\n"
    );
}

#[test]
fn closed_stdout_ends_quietly_with_success() {
    // As in `iobts wacomm ... | true`: the reader is gone before the
    // banner or the summary is written.
    let runs: [&[&str]; 2] = [
        &["wacomm", "--ranks", "4", "--iterations", "2"],
        &["hacc", "--ranks", "4", "--loops", "2"],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
            .args(args)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

fn iobts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(args)
        .output()
        .unwrap()
}

/// Each command `iobts help` lists, with the `--option [default]` pairs
/// listed under it.
fn help_defaults() -> Vec<(String, Vec<(String, String)>)> {
    let help = String::from_utf8(iobts(&["help"]).stdout).unwrap();
    let mut listed: Vec<(String, Vec<(String, String)>)> = Vec::new();
    let section = help
        .lines()
        .skip_while(|l| !l.starts_with("COMMANDS"))
        .skip(1)
        .take_while(|l| !l.is_empty());
    for line in section {
        let words: Vec<&str> = line.split_whitespace().collect();
        if !words[0].starts_with("--") {
            listed.push((words[0].to_string(), Vec::new()));
            continue;
        }
        let defaults = &mut listed.last_mut().unwrap().1;
        for pair in words.windows(2) {
            if let Some(d) = pair[1].strip_prefix('[').and_then(|d| d.strip_suffix(']')) {
                defaults.push((pair[0].to_string(), d.to_string()));
            }
        }
    }
    listed
}

#[test]
fn help_lists_the_defaults_each_command_reads() {
    let listed = help_defaults();
    let defaults_of = |cmd: &str| {
        let (_, d) = listed.iter().find(|(c, _)| c == cmd).unwrap();
        d.iter()
            .map(|(o, v)| format!("{o} {v}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    assert_eq!(
        defaults_of("period"),
        "--ranks 16 --particles 500000 --loops 12"
    );
    assert!(defaults_of("wacomm").starts_with("--ranks 96 --iterations 50 "));
    assert!(defaults_of("hacc").starts_with("--ranks 64 --particles 100000 --loops 10 "));
    assert_eq!(defaults_of("cluster"), "");
    // A command run with every listed default spelt out prints exactly what
    // it prints when left to its own defaults.
    for (cmd, defaults) in &listed {
        if defaults.is_empty() {
            continue;
        }
        let mut args = vec![cmd.as_str()];
        args.extend(defaults.iter().flat_map(|(o, v)| [o.as_str(), v.as_str()]));
        let own = iobts(&[cmd]);
        let spelt = iobts(&args);
        assert!(own.status.success() && spelt.status.success(), "{cmd}");
        assert_eq!(
            String::from_utf8_lossy(&own.stdout),
            String::from_utf8_lossy(&spelt.stdout),
            "{args:?}"
        );
    }
}

#[test]
fn period_finds_the_hacc_loop_period() {
    let out = iobts(&["period"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dominant I/O period 4.64 s"), "{stdout}");
}

/// `(job, runtime)` of every job row `iobts cluster` prints.
fn cluster_runtimes(args: &[&str]) -> Vec<(String, f64)> {
    let out = iobts(args);
    assert!(out.status.success(), "{args:?}");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("job") && !l.starts_with("job "))
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            (words[0].to_string(), words[4].parse().unwrap())
        })
        .collect()
}

#[test]
fn cluster_runtimes_match_the_fig01_csv() {
    let csv = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/fig01_jobs.csv"
    ))
    .unwrap();
    let rows: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    assert_eq!(rows.len(), 8);
    // The CLI prints one decimal and the CSV two, so they agree to 0.06 s.
    for (args, column) in [(&["cluster"][..], 6), (&["cluster", "--limit"][..], 7)] {
        let printed = cluster_runtimes(args);
        assert_eq!(printed.len(), rows.len(), "{args:?}");
        for ((job, runtime), row) in printed.iter().zip(&rows) {
            assert_eq!(job, row[0], "{args:?}");
            let want: f64 = row[column].parse().unwrap();
            assert!(
                (runtime - want).abs() <= 0.06,
                "{args:?} {job}: printed {runtime} s, fig01_jobs.csv {want} s"
            );
        }
    }
}
