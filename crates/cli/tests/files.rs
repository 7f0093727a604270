//! File-level CLI tests over the shipped `.cir` assets.

use conair_cli::{execute, Command, RunOptions};

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

/// A program past the live-heap cap or the call-depth cap gets a failure
/// report, not a process abort.
#[test]
fn resource_caps_report_instead_of_aborting() {
    for (name, body, cause) in [
        ("alloc", "%r0 = alloc 99999999999999", "heap exhausted"),
        ("recursion", "%r0 = call @f0()", "call stack overflow"),
    ] {
        let path = std::env::temp_dir().join(format!("conair_cli_cap_{name}.cir"));
        let src = format!(
            "module m {{\nfn a(params=0, regs=1, locals=0) {{\nbb0:\n    {body}\n    ret\n}}\n}}\n"
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
