//! The `.cir` front end — `parse_module`, then `validate` on whatever
//! parses — answers every mutation of a real module with `Ok` or `Err`,
//! never a panic.
//!
//! The inputs are the shipped `assets/*.cir` and FFT's printed module.
//! Each is cut at every byte and given a fixed-seed set of single-byte
//! substitutions; a substituted byte that is not UTF-8 reaches the parser
//! as U+FFFD, so multi-byte characters are exercised too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use conair_ir::{parse_module, validate};
use conair_workloads::workload_by_name;

/// Bytes a substitution writes: the IR's sigils and punctuation, digits,
/// letters of its keywords, and one byte that is never UTF-8.
const PALETTE: &[u8] = b"%@{}()[],=:.-\"x 0123456789\nabcdefgilmnoprstu_\xff";

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

/// Whether parsing `text`, and validating what parses, panicked.
fn panics(text: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        if let Ok(module) = parse_module(text) {
            let _ = validate(&module);
        }
    }))
    .is_err()
}

#[test]
fn mutated_cir_never_panics_the_parser_or_validator() {
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/assets");
    let mut inputs: Vec<(String, String)> = ["deadlock.cir", "order_violation.cir"]
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(format!("{assets}/{f}")).unwrap();
            (f.to_string(), text)
        })
        .collect();
    let fft = workload_by_name("FFT").expect("registered workload");
    inputs.push(("FFT".to_string(), fft.program.module.to_string()));
    let mut total = 0;
    for (name, text) in &inputs {
        let module = parse_module(text).expect("the unmutated input parses");
        assert!(
            validate(&module).is_ok(),
            "{name}: the unmutated input validates"
        );
        for (i, m) in mutants(text.as_bytes()).iter().enumerate() {
            let m = String::from_utf8_lossy(m);
            total += 1;
            assert!(!panics(&m), "{name}: mutant {i} panicked:\n{m}");
        }
    }
    assert!(total > inputs.len() * SUBSTITUTIONS, "{total} mutants");
}
