//! The in-repo validators must reject bad input with an `Err`, never a
//! panic: `json::parse` and `expo::parse_exposition` run on arbitrary
//! strings and on every truncation of a real snapshot's exports.

use proptest::prelude::*;
use sa_telemetry::{expo, json, Registry};

/// Characters the two grammars branch on, so random strings reach past
/// the first byte of both parsers.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', '\\', ':', ',', '=', '#', ' ', '\n', '-', '+', '.', 'e', 'E', '0',
    '7', 'u', 'n', 't', 'f', 'a', '_', 'é', '∞',
];

fn grammar_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..ALPHABET.len() + 1, any::<char>()), 0..96).prop_map(|v| {
        v.into_iter()
            .map(|(i, c)| ALPHABET.get(i).copied().unwrap_or(c))
            .collect()
    })
}

/// A snapshot exercising every export shape: labelled and bare
/// counters, gauges, and a multi-bucket histogram, with a label value
/// that needs escaping.
fn exports() -> (String, String) {
    let r = Registry::new();
    r.counter("decode.packets", &[("ap", "0")]).add(10);
    r.counter("fleet.windows", &[]).add(3);
    r.gauge("store.occupancy", &[("ap", "quote\"back\\slash\nnl")])
        .set(-42);
    let h = r.histogram("stage.decode", &[("shard", "1")]);
    for v in [100u64, 900, 40_000, 7_000_000] {
        h.record(v);
    }
    let snap = r.snapshot();
    (snap.to_json(), snap.to_prometheus())
}

/// The longest prefix of `s` that ends on a char boundary at or before
/// byte `cut`.
fn prefix(s: &str, cut: usize) -> &str {
    let mut end = cut.min(s.len());
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_arbitrary_strings(s in grammar_string()) {
        let _ = json::parse(&s);
        let _ = expo::parse_exposition(&s);
    }

    #[test]
    fn parsers_never_panic_on_truncated_snapshots(cut in 0usize..4096) {
        let (doc, prom) = exports();
        let doc_cut = prefix(&doc, cut % (doc.len() + 1));
        let prom_cut = prefix(&prom, cut % (prom.len() + 1));
        // A JSON prefix is a whole document only when nothing but
        // trailing whitespace was cut.
        prop_assert_eq!(json::parse(doc_cut).is_ok(), doc_cut.trim_end() == doc.trim_end());
        let _ = expo::parse_exposition(prom_cut);
    }
}
