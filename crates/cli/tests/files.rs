//! File-level CLI tests over the shipped `.cir` assets.

use conair_cli::{execute, Command, RunOptions};
use conair_runtime::{ExplorePhases, ExploreReport};

fn asset(name: &str) -> String {
    format!("{}/../../assets/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn print_and_analyze_assets() {
    for file in ["order_violation.cir", "deadlock.cir"] {
        let out = execute(&Command::Print { input: asset(file) }).unwrap();
        assert!(out.contains("fn "), "{file}: {out}");
    }
    let out = execute(&Command::Analyze {
        input: asset("order_violation.cir"),
        fix_markers: vec![],
        no_optimize: false,
        no_interproc: false,
    })
    .unwrap();
    assert!(out.contains("assertion-violation sites: 1"), "{out}");
}

#[test]
fn harden_to_file_then_run() {
    let out_path = std::env::temp_dir().join("conair_cli_hardened.cir");
    let out = execute(&Command::Harden {
        input: asset("order_violation.cir"),
        fix_markers: vec![],
        output: Some(out_path.to_string_lossy().into_owned()),
    })
    .unwrap();
    assert!(out.contains("wrote hardened module"));
    let run = execute(&Command::Run {
        input: out_path.to_string_lossy().into_owned(),
        opts: RunOptions {
            threads: vec!["reader".into(), "writer".into()],
            seed: 3,
            steps: 1_000_000,
            ..RunOptions::default()
        },
    })
    .unwrap();
    assert!(run.contains("completed"), "{run}");
    assert!(run.contains("consumed = 42"), "{run}");
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn deadlock_asset_hangs_with_diagnosis_under_adverse_seed() {
    // Some seed interleaves the two lock acquisitions adversely; scan a few.
    let mut saw_hang = false;
    for seed in 0..60 {
        let run = execute(&Command::Run {
            input: asset("deadlock.cir"),
            opts: RunOptions {
                threads: vec!["t1".into(), "t2".into()],
                seed,
                steps: 200_000,
                ..RunOptions::default()
            },
        })
        .unwrap();
        if run.contains("HANG") {
            assert!(run.contains("wait cycle:"), "{run}");
            saw_hang = true;
            break;
        }
    }
    assert!(saw_hang, "no seed produced the deadlock");
}

#[test]
fn hardened_traced_deadlock_run_then_report() {
    // The acceptance path: harden inline, trace to JSONL, then report.
    // --threads is omitted on purpose: t1 and t2 are the zero-parameter
    // functions of the module and become the default entries.
    let trace_path = std::env::temp_dir().join("conair_cli_deadlock_trace.jsonl");
    let chrome_path = std::env::temp_dir().join("conair_cli_deadlock_trace.chrome.json");
    let run = execute(&Command::Run {
        input: asset("deadlock.cir"),
        opts: RunOptions {
            harden: true,
            seed: 11,
            steps: 1_000_000,
            trace: Some(trace_path.to_string_lossy().into_owned()),
            ..RunOptions::default()
        },
    })
    .unwrap();
    assert!(run.contains("hardened: "), "{run}");
    assert!(run.contains("counts match run stats"), "{run}");
    assert!(run.contains("wrote "), "{run}");

    let report = execute(&Command::Report {
        input: trace_path.to_string_lossy().into_owned(),
        limit: 0,
        chrome: Some(chrome_path.to_string_lossy().into_owned()),
    })
    .unwrap();
    assert!(report.contains("timeline ("), "{report}");
    assert!(report.contains("metrics:"), "{report}");
    assert!(report.contains("wrote Chrome trace to "), "{report}");
    let chrome = std::fs::read_to_string(&chrome_path).unwrap();
    assert!(chrome.contains("traceEvents"), "{chrome}");
    let _ = std::fs::remove_file(trace_path);
    let _ = std::fs::remove_file(chrome_path);
}

#[test]
fn missing_file_reports_cleanly() {
    let err = execute(&Command::Print {
        input: "/no/such/file.cir".into(),
    })
    .unwrap_err();
    assert!(err.message.contains("cannot read"));
}

/// A program past the live-heap cap, the call-depth cap or the live
/// stack-words cap gets a failure report, not a process abort.
#[test]
fn resource_caps_report_instead_of_aborting() {
    for (name, regs, body, cause) in [
        ("alloc", 1, "%r0 = alloc 99999999999999", "heap exhausted"),
        ("recursion", 1, "%r0 = call @f0()", "call stack overflow"),
        ("stack", 65_000, "%r0 = call @f0()", "stack exhausted"),
    ] {
        let path = std::env::temp_dir().join(format!("conair_cli_cap_{name}.cir"));
        let src = format!(
            "module m {{\nfn a(params=0, regs={regs}, locals=0) {{\nbb0:\n    {body}\n    ret\n}}\n}}\n"
        );
        std::fs::write(&path, src).unwrap();
        let run = execute(&Command::Run {
            input: path.to_string_lossy().into_owned(),
            opts: RunOptions {
                steps: 1_000_000,
                ..RunOptions::default()
            },
        })
        .unwrap();
        assert!(run.contains("FAILED (segmentation-fault)"), "{name}: {run}");
        assert!(run.contains(cause), "{name}: {run}");
        let _ = std::fs::remove_file(path);
    }
}

/// Parses and executes one command line, as the binary does.
fn cli(args: &[&str]) -> Result<String, conair_cli::CliError> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    conair_cli::parse_args(&args).and_then(|cmd| execute(&cmd))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Frames and globals too large to allocate fail validation with the cap
/// they exceed, in every command that would execute them, instead of
/// aborting the process on allocation.
#[test]
fn oversized_frames_and_globals_fail_validation() {
    for (name, decl, header, cap) in [
        ("regs", "", "regs=100000000000, locals=0", "frame cap"),
        ("locals", "", "regs=1, locals=100000000000", "frame cap"),
        (
            "global",
            "global g [100000000000 x i64] = 0\n",
            "regs=1, locals=0",
            "global cap",
        ),
    ] {
        let path = std::env::temp_dir().join(format!("conair_cli_oversized_{name}.cir"));
        let src =
            format!("module m {{\n{decl}fn a(params=0, {header}) {{\nbb0:\n    ret\n}}\n}}\n");
        std::fs::write(&path, src).unwrap();
        let path = path.to_string_lossy().into_owned();
        for cmd in ["run", "explore", "verify", "harden"] {
            let err = cli(&[cmd, &path]).unwrap_err().message;
            assert!(err.contains("validation failed"), "{name} {cmd}: {err}");
            assert!(err.contains(cap), "{name} {cmd}: {err}");
        }
        let _ = std::fs::remove_file(path);
    }
}

/// A decision trace whose mask sets bits no scheduling point defines is
/// rejected on replay and on report, rather than replayed under a
/// truncated mask that hashes differently.
#[test]
fn undefined_mask_bits_are_rejected() {
    let dir = std::env::temp_dir();
    let recorded = dir.join("conair_cli_mask_recorded.trace.json");
    let recorded = recorded.to_string_lossy().into_owned();
    let input = asset("order_violation.cir");
    cli(&["run", &input, "--record", &recorded]).unwrap();
    let text = std::fs::read_to_string(&recorded).unwrap();
    assert!(text.contains("\"mask\": 127"), "{text}");
    let bad = dir.join("conair_cli_mask_255.trace.json");
    let bad = bad.to_string_lossy().into_owned();
    std::fs::write(&bad, text.replace("\"mask\": 127", "\"mask\": 255")).unwrap();

    let err = cli(&["run", &input, "--replay", &bad]).unwrap_err().message;
    assert!(err.contains("undefined point bits 0x80"), "{err}");
    let err = cli(&["report", &bad]).unwrap_err().message;
    assert!(err.contains("undefined point bits 0x80"), "{err}");
    let _ = std::fs::remove_file(recorded);
    let _ = std::fs::remove_file(bad);
}

/// The hardened `order_violation` trial summary — outcome counts, retry,
/// recovery-latency, checkpoint and undo-depth histograms — hashes to the
/// value recorded while the legacy per-step interpreter walk was still
/// diffed against the decoded one in the same run.
#[test]
fn hardened_trials_summary_matches_golden() {
    let hardened = std::env::temp_dir().join("conair_cli_golden_hardened.cir");
    let hardened = hardened.to_string_lossy().into_owned();
    cli(&["harden", &asset("order_violation.cir"), "-o", &hardened]).unwrap();
    let out = cli(&["run", &hardened, "--trials", "8", "--jobs", "1"]).unwrap();
    assert_eq!(fnv1a(out.as_bytes()), 0x6cc0_b078_0674_76fa, "{out}");
    let _ = std::fs::remove_file(hardened);
}

/// The hardened `deadlock.cir` over 64 consult-every-step trials: blocked
/// threads keep the eligibility set uncacheable, and timed-lock timeouts
/// roll back and mark it stale. The summary hashes to the value recorded
/// before the cache was kept under schedule gates.
#[test]
fn hardened_deadlock_trials_summary_matches_golden() {
    let hardened = std::env::temp_dir().join("conair_cli_golden_deadlock.cir");
    let hardened = hardened.to_string_lossy().into_owned();
    cli(&["harden", &asset("deadlock.cir"), "-o", &hardened]).unwrap();
    let out = cli(&["run", &hardened, "--trials", "64", "--jobs", "1"]).unwrap();
    assert!(out.contains("64 completed"), "{out}");
    assert_eq!(fnv1a(out.as_bytes()), 0xc2bd_d43c_74d9_8db9, "{out}");
    let _ = std::fs::remove_file(hardened);
}

/// The keep-going bounded search of `deadlock.cir` writes a report that,
/// with its wall-clock fields zeroed, hashes to the value recorded while
/// the legacy per-step interpreter walk was still diffed against the
/// decoded one.
#[test]
fn bounded_explore_report_matches_golden() {
    let path = std::env::temp_dir().join("conair_cli_golden_explore.json");
    let path = path.to_string_lossy().into_owned();
    cli(&[
        "explore",
        &asset("deadlock.cir"),
        "--scheduler",
        "bounded",
        "--preemptions",
        "2",
        "--budget",
        "128",
        "--keep-going",
        "--report-out",
        &path,
    ])
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let report: ExploreReport = serde_json::from_str(&text).unwrap();
    let pinned = ExploreReport {
        wall_ms: 0,
        phases: ExplorePhases::default(),
        ..report
    };
    let json = serde_json::to_string(&pinned).unwrap();
    assert_eq!(fnv1a(json.as_bytes()), 0x6ca0_5faf_1f4b_2ca8, "{json}");
    let _ = std::fs::remove_file(path);
}

/// A keep-going PCT sweep's counterexample minimizes in a handful of
/// replays instead of spending the whole budget, reports its deviations
/// from the non-preemptive default, and the written trace replays to the
/// same hang.
#[test]
fn pct_counterexample_minimizes_below_its_budget() {
    let path = std::env::temp_dir().join("conair_cli_pct_minimized.trace.json");
    let path = path.to_string_lossy().into_owned();
    let input = asset("deadlock.cir");
    let out = cli(&[
        "explore",
        &input,
        "--scheduler",
        "pct",
        "--budget",
        "64",
        "--keep-going",
        "--minimize",
        "-o",
        &path,
    ])
    .unwrap();
    assert!(out.contains("outcome hang"), "{out}");
    let line = out
        .lines()
        .find(|l| l.starts_with("minimized: "))
        .unwrap_or_else(|| panic!("{out}"));
    assert!(line.contains(" deviations ("), "{line}");
    let replays: usize = line
        .rsplit(", ")
        .next()
        .and_then(|tail| tail.strip_suffix(" candidate replays"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{line}"));
    assert!(replays < 64, "{line}");
    let replay = cli(&["run", &input, "--replay", &path]).unwrap();
    assert!(
        replay.contains("HANG: 2 threads blocked on locks"),
        "{replay}"
    );
    assert!(!replay.contains("diverged"), "{replay}");
    let _ = std::fs::remove_file(path);
}

/// `explore` prints its report with the renderer `report` uses: the block
/// `report` renders from the written JSON appears verbatim in the
/// explore output.
#[test]
fn explore_prints_the_report_it_writes() {
    let path = std::env::temp_dir().join("conair_cli_one_renderer.json");
    let path = path.to_string_lossy().into_owned();
    let explored = cli(&[
        "explore",
        &asset("deadlock.cir"),
        "--scheduler",
        "bounded",
        "--keep-going",
        "--report-out",
        &path,
    ])
    .unwrap();
    let rendered = cli(&["report", &path]).unwrap();
    assert!(rendered.starts_with("exploration report:\n"), "{rendered}");
    assert!(explored.contains(&rendered), "{explored}\n---\n{rendered}");
    let _ = std::fs::remove_file(path);
}
