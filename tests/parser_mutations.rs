//! Mutation tests for the two text readers a user can point at a file: the
//! METIS graph reader (`graph::io::parse_metis_graph`, `--graph`) and the
//! JSON reader (`obs::json::parse`, traces and benchmark ledgers).
//!
//! The contract under test: whatever the bytes, a call returns — `Ok` or
//! `Err`, never a panic (an overflow, a slice past the end, a bad index) and
//! never a stack overflow. Each test starts from one valid document and
//! makes a few thousand seeded mutants of it: substitutions from the
//! format's alphabet, deleted and duplicated spans, truncations, and
//! inserted integers at the readers' widths (`4294967295` is `u32::MAX`,
//! `18446744073709551616` is `u64::MAX + 1`). A failure names the mutant's
//! index and its text, so it reproduces from the seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tempart::graph::io::parse_metis_graph;
use tempart::obs::json;
use tempart_testkit::rng::Rng;

const MUTANTS: usize = 4000;

/// `u32::MAX` and `u64::MAX + 1`.
const WIDE_NUMBERS: [&str; 2] = ["4294967295", "18446744073709551616"];

/// `doc` with one to three seeded edits applied, char by char so the
/// result stays a `&str`.
fn mutate(rng: &mut Rng, doc: &[char], alphabet: &[&str]) -> String {
    let mut s = doc.to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let n = s.len();
        let i = rng.gen_range(0..n + 1);
        let j = (i + rng.gen_range(1..17usize)).min(n);
        match rng.gen_range(0..5u32) {
            0 if i < n => {
                let token = alphabet[rng.gen_range(0..alphabet.len())];
                s.splice(i..i + 1, token.chars());
            }
            1 => {
                s.drain(i..j);
            }
            2 => {
                let span = s[i..j].to_vec();
                let at = rng.gen_range(0..n + 1);
                s.splice(at..at, span);
            }
            3 => s.truncate(i),
            _ => {
                let number = WIDE_NUMBERS[rng.gen_range(0..WIDE_NUMBERS.len())];
                s.splice(i..i, number.chars());
            }
        }
    }
    s.into_iter().collect()
}

/// Feeds `MUTANTS` mutants of `doc` to `parse`, failing on the first call
/// that panics. Returns how many mutants parsed and how many were refused,
/// so a caller can check that both outcomes were exercised.
fn check_mutants(
    seed: u64,
    doc: &str,
    alphabet: &[&str],
    parse: impl Fn(&str) -> bool,
) -> [usize; 2] {
    let doc: Vec<char> = doc.chars().collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut outcomes = [0usize; 2];
    for m in 0..MUTANTS {
        let text = mutate(&mut rng, &doc, alphabet);
        match catch_unwind(AssertUnwindSafe(|| parse(&text))) {
            Ok(ok) => outcomes[usize::from(ok)] += 1,
            Err(_) => panic!("mutant {m} of seed {seed:#x} panicked: {text:?}"),
        }
    }
    outcomes
}

#[test]
fn metis_reader_returns_on_every_mutant() {
    // A weighted 4-cycle with two constraints (fmt 011) and comments.
    let doc = "% a 4-cycle\n4 4 011 2\n1 2 2 3 4 5\n3 4 1 3 3 6\n% vertex 3\n\
               5 6 2 6 4 7\n7 8 3 7 1 5\n";
    assert!(
        parse_metis_graph(doc).is_ok(),
        "the seed document must parse"
    );
    let alphabet = [
        "0", "1", "2", "4", "9", " ", "\t", "\n", "\r", "%", "-", "+", "x", "é",
    ];
    let [refused, parsed] = check_mutants(0x5EED_0008, doc, &alphabet, |t| {
        parse_metis_graph(t).is_ok()
    });
    assert!(
        refused > 0 && parsed > 0,
        "{refused} refused, {parsed} parsed"
    );
}

#[test]
fn json_reader_returns_on_every_mutant() {
    let doc = r#"{"traceEvents":[{"name":"part.bisect","ph":"X","ts":1.5e3,"dur":42,"args":{"nvtx":52424,"ok":true,"note":"a\"b\\é ∂ρ/∂t 🚀"}},{"name":"x","ph":"C","args":{}}],"dropped":0,"meta":[null,false,-0.25,[[]]]}"#;
    assert!(json::parse(doc).is_ok(), "the seed document must parse");
    let alphabet = [
        "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "0", "7", ".", "e", "E", "-", "+", "t",
        "f", "n", "u", " ", "\n", "é", "🚀",
    ];
    let [refused, parsed] = check_mutants(0x5EED_0009, doc, &alphabet, |t| json::parse(t).is_ok());
    assert!(
        refused > 0 && parsed > 0,
        "{refused} refused, {parsed} parsed"
    );
}
