//! Deterministic byte-mutation fuzzing of the parsers untrusted bytes
//! reach: `Json::parse`, `parse_model` and `Request::parse`.
//!
//! The seeds are the golden request lines, the golden reply lines (their
//! floats exercise `Json::parse`), the shipped model documents
//! (`examples/models/*.json`) and lines carrying the integer extremes
//! (2^63, `u64::MAX`, `i64::MIN`, `-0`). Each mutant flips, inserts,
//! deletes or duplicates bytes, or splices in a run of `[`/`{` (long runs
//! probe the nesting bound). Nothing may panic, and every input a parser accepts
//! must re-encode to a fixed point: `encode ∘ parse ∘ encode` equals
//! `encode`.

mod golden;

use std::path::Path;

use bitfusion_dnn::schema::{export_model, parse_model};
use bitfusion_service::json::parse as parse_json;
use bitfusion_service::protocol::Request;
use proptest::TestRng;

/// Mutants per seed.
const MUTANTS: usize = 300;

/// Bytes that steer a JSON parser somewhere interesting.
const INSERTS: &[u8] = b"\"\\{}[]:,-+.0123456789eEnulltruefalse \t\n\x01\xff";

/// Lines at the edges of the integer domain: past `i64::MAX` a number
/// still decodes as an exact integer, past `u64::MAX` it becomes a float.
const EXTREMES: [&str; 3] = [
    r#"{"cmd":"report","benchmark":"alexnet","batch":9223372036854775808}"#,
    r#"{"cmd":"report","benchmark":"alexnet","batch":18446744073709551615}"#,
    "[9223372036854775808,18446744073709551615,-9223372036854775808,-0]",
];

fn seeds() -> Vec<Vec<u8>> {
    let requests = golden::requests().into_iter().map(|(_, line)| line);
    let responses = golden::responses().into_iter().map(|(_, line)| line);
    let mut seeds: Vec<Vec<u8>> = requests
        .chain(responses)
        .chain(EXTREMES)
        .map(|line| line.as_bytes().to_vec())
        .collect();
    let models = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/models");
    let mut paths: Vec<_> = std::fs::read_dir(&models)
        .expect("examples/models exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no model documents under {}",
        models.display()
    );
    seeds.extend(
        paths
            .iter()
            .map(|path| std::fs::read(path).expect("readable model")),
    );
    seeds
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.range_u64(0, n as u64 - 1) as usize
}

fn mutate(seed: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..1 + below(rng, 3) {
        let at = below(rng, bytes.len() + 1);
        match below(rng, 5) {
            0 if at < bytes.len() => bytes[at] ^= 1 << below(rng, 8),
            1 => bytes.insert(at, INSERTS[below(rng, INSERTS.len())]),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let end = (at + 1 + below(rng, 32)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(end..end, run);
            }
            _ => {
                let len = if below(rng, 8) == 0 {
                    20_000
                } else {
                    1 + below(rng, 200)
                };
                let open = if below(rng, 2) == 0 { b'[' } else { b'{' };
                bytes.splice(at..at, std::iter::repeat_n(open, len));
            }
        }
    }
    bytes
}

#[test]
fn mutated_wire_bytes_never_panic_and_reencode_to_a_fixed_point() {
    let mut rng = TestRng::from_name("wire_fuzz");
    let mut accepted = [0usize; 3];
    for seed in seeds() {
        for _ in 0..MUTANTS {
            let bytes = mutate(&seed, &mut rng);
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(doc) = parse_json(&text) {
                accepted[0] += 1;
                let once = doc.encode();
                let again = parse_json(&once).expect("own encoding parses").encode();
                assert_eq!(again, once, "Json::parse of {text:?}");
            }
            if let Ok(model) = parse_model(&text) {
                accepted[1] += 1;
                let once = export_model(&model).encode();
                let back = parse_model(&once).expect("own export parses");
                assert_eq!(
                    export_model(&back).encode(),
                    once,
                    "parse_model of {text:?}"
                );
            }
            if let Ok(request) = Request::parse(&text) {
                accepted[2] += 1;
                let once = request.encode();
                let back = Request::parse(&once).expect("own encoding parses");
                assert_eq!(back.encode(), once, "Request::parse of {text:?}");
            }
        }
    }
    // The mutants must reach past the syntax check, or the fixed-point
    // half of the test checks nothing.
    assert!(
        accepted.iter().all(|&n| n >= 10),
        "accepted per parser: {accepted:?}"
    );
}
