//! Byte-level fuzz of the request path's number handling (ROADMAP item
//! 7): `json::parse` hands every run of digit, sign, dot and exponent
//! characters to `f64::from_str`, which accepts `1e999` as infinity, so
//! the members a request reads numbers from must each refuse what is not
//! a finite value in their range — and nothing on the way may panic.

use proptest::prelude::*;

use topk_service::json;
use topk_service::protocol::{parse_request_meta, Request};
use topk_service::{Engine, EngineConfig};

/// A `topr` request carrying every member the parser reads.
const TOPR: &str =
    r#"{"cmd":"topr","k":10,"approx":0.1,"explain":true,"trace":"t-1","deadline_ms":250}"#;

/// What an accepted query may carry: `k ≥ 1` and an ε inside (0, 1).
fn assert_sane(req: &Request, line: &str) {
    if let Request::TopK { k, approx, .. } | Request::TopR { k, approx, .. } = req {
        assert!(*k >= 1, "k = {k} accepted from {line:?}");
        if let Some(eps) = approx {
            assert!(
                *eps > 0.0 && *eps < 1.0,
                "approx = {eps} accepted from {line:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Any string over the characters `parse_num` scans parses to a
    /// number or is refused; it never panics, alone or as a member.
    #[test]
    fn number_like_strings_parse_or_fail(text in "[0-9+.eE-]{0,24}") {
        if let Ok(v) = json::parse(&text) {
            prop_assert!(v.as_f64().is_some(), "`{}` parsed to a non-number", text);
        }
        let line = format!(r#"{{"cmd":"topr","k":{text},"approx":{text},"deadline_ms":{text}}}"#);
        if let Ok((req, _)) = parse_request_meta(&line) {
            assert_sane(&req, &line);
        }
    }
}

/// Every single-byte substitution of a valid request line is answered
/// `Ok` or `Err`. (Lines that are no longer UTF-8 never reach the parser:
/// the connection reader refuses them first.)
#[test]
fn every_byte_substitution_of_a_topr_request_is_handled() {
    let (req, meta) = parse_request_meta(TOPR).expect("the unmodified line is valid");
    assert!(matches!(req, Request::TopR { k: 10, .. }));
    assert_eq!(meta.deadline_ms, Some(250));
    let mut accepted = 0usize;
    for at in 0..TOPR.len() {
        for byte in 0..=u8::MAX {
            let mut bytes = TOPR.as_bytes().to_vec();
            bytes[at] = byte;
            let Ok(line) = std::str::from_utf8(&bytes) else {
                continue;
            };
            if let Ok((req, _)) = parse_request_meta(line) {
                assert_sane(&req, line);
                accepted += 1;
            }
        }
    }
    // Digit-for-digit and in-string substitutions stay valid requests.
    assert!(accepted > TOPR.len());
}

/// `1e999` (infinity to `f64::from_str`), `1e` and `--1` are refused in
/// every numeric member. `-0` is JSON's zero: refused where zero is out
/// of range (`k`, `approx`) and taken as the finite 0 it is elsewhere.
#[test]
fn non_finite_and_malformed_numbers_are_refused_in_every_member() {
    let engine = Engine::new(EngineConfig::default()).expect("default engine");
    for literal in ["1e999", "-0", "1e", "--1"] {
        for member in ["k", "approx", "deadline_ms"] {
            let line = match member {
                "k" => format!(r#"{{"cmd":"topr","k":{literal}}}"#),
                _ => format!(r#"{{"cmd":"topr","k":3,"{member}":{literal}}}"#),
            };
            match parse_request_meta(&line) {
                Err(e) => assert!(
                    matches!(e.code, "bad_request" | "bad_json"),
                    "{line}: refused as `{}`",
                    e.code
                ),
                Ok((req, meta)) => {
                    assert_eq!((member, literal), ("deadline_ms", "-0"), "{line} accepted");
                    assert!(matches!(
                        req,
                        Request::TopR {
                            k: 3,
                            approx: None,
                            ..
                        }
                    ));
                    assert_eq!(meta.deadline_ms, Some(0));
                }
            }
        }
        // The wire parser takes any number as a weight; the engine is
        // where a weight is checked, before anything is staged.
        let line = format!(r#"{{"cmd":"ingest","fields":["a b"],"weight":{literal}}}"#);
        match parse_request_meta(&line) {
            Err(e) => assert_eq!(e.code, "bad_json", "{line}"),
            Ok((Request::Ingest(rows), _)) => {
                let weight = rows[0].1;
                match engine.ingest(rows) {
                    Err(e) => assert!(e.contains("must be finite"), "{line}: {e}"),
                    Ok(_) => assert_eq!((literal, weight), ("-0", 0.0), "{line} ingested"),
                }
            }
            Ok((other, _)) => panic!("{line} parsed as {other:?}"),
        }
    }
    assert_eq!(engine.generation(), 1, "only the `-0` weight was ingested");
}
