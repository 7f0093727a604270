//! The CLI's load paths for the files it writes itself — an exploration
//! report, a decision trace and event JSONL streams — answer every
//! mutation of those files with a result or a `CliError`, never a panic.
//!
//! Each input is produced by the CLI, then cut at every byte and given a
//! fixed-seed set of single-byte substitutions. Every mutant is fed to
//! `report`, `stats` and `run --replay`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use conair_cli::{execute, parse_args};

fn asset(name: &str) -> String {
    format!("{}/../../assets/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn temp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("conair_cli_mutated_{name}"))
        .to_string_lossy()
        .into_owned()
}

/// Parses and executes one command line, as the binary does, and reports
/// whether it panicked instead of returning.
fn panics(args: &[&str]) -> bool {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    catch_unwind(AssertUnwindSafe(|| {
        let _ = parse_args(&args).and_then(|cmd| execute(&cmd));
    }))
    .is_err()
}

/// Bytes a substitution writes: JSON structure, digits and letters that
/// form keywords and field names, and one byte that is never UTF-8.
const PALETTE: &[u8] = b"0123456789-+.eE\"{}[]:, \nntrufals_xyz\\\xff";

/// Substitutions per input.
const SUBSTITUTIONS: usize = 256;

/// Every byte-prefix of `text`, then [`SUBSTITUTIONS`] single-byte
/// substitutions drawn by a fixed-seed xorshift.
fn mutants(text: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..text.len()).map(|n| text[..n].to_vec()).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    for _ in 0..SUBSTITUTIONS {
        let mut m = text.to_vec();
        let at = next() % m.len();
        m[at] = PALETTE[next() % PALETTE.len()];
        out.push(m);
    }
    out
}

#[test]
fn mutated_reports_traces_and_streams_never_panic() {
    let deadlock = asset("deadlock.cir");
    let (report, trace, progress, events) = (
        temp("report.json"),
        temp("trace.json"),
        temp("progress.jsonl"),
        temp("events.jsonl"),
    );
    let explore = [
        "explore",
        &deadlock,
        "--scheduler",
        "bounded",
        "--preemptions",
        "2",
        "--budget",
        "128",
        "--report-out",
        &report,
        "-o",
        &trace,
        "--progress-out",
        &progress,
    ];
    assert!(!panics(&explore));
    let run = [
        "run", &deadlock, "--harden", "--trace", &events, "--seed", "0",
    ];
    assert!(!panics(&run));

    let mutant = temp("mutant");
    let mut total = 0;
    for input in [&report, &trace, &progress, &events] {
        let text = std::fs::read(input).unwrap();
        assert!(!text.is_empty(), "{input}");
        for (i, m) in mutants(&text).iter().enumerate() {
            std::fs::write(&mutant, m).unwrap();
            for cmd in [
                &["report", &mutant][..],
                &["stats", &mutant],
                &["run", &deadlock, "--replay", &mutant],
            ] {
                total += 1;
                assert!(
                    !panics(cmd),
                    "{cmd:?} panicked on mutant {i} of {input}: {}",
                    String::from_utf8_lossy(m)
                );
            }
        }
        let _ = std::fs::remove_file(input);
    }
    assert!(total > 3 * 4 * SUBSTITUTIONS, "{total} runs");
    let _ = std::fs::remove_file(mutant);
}
