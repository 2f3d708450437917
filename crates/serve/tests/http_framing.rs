//! Request framing: damaged bytes of a valid request are refused or
//! parsed, never a panic, and a request cut short in its head or body
//! is always an error.
//!
//! Each property damages a valid `GET` or `PUT` — flips bytes,
//! truncates it, or appends junk — and parses the mutant from memory.
//! An in-memory reader hands over the whole input in one read, so the
//! appended bytes always arrive with the head: they are body bytes the
//! request did not declare, and must be refused too.

use proptest::prelude::*;
use transform_serve::http::{read_request, RequestError};

/// How [`damage`] breaks its input.
const FLIP: u8 = 0;
const TRUNCATE: u8 = 1;
const EXTEND: u8 = 2;

const GET: &[u8] =
    b"GET /v1/suite/00112233445566778899aabbccddeeff HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n";

fn put() -> Vec<u8> {
    let body = b"sealed suite bytes";
    let mut request = format!(
        "PUT /v1/suite/00112233445566778899aabbccddeeff HTTP/1.1\r\nHost: fuzz\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// Damages `input`: `edits` name the flipped positions (taken modulo
/// the length) and XOR masks, the truncation point, or the appended
/// bytes.
fn damage(input: &[u8], kind: u8, edits: &[(usize, u8)]) -> Vec<u8> {
    let mut out = input.to_vec();
    match kind {
        FLIP => {
            for &(at, mask) in edits {
                let i = at % out.len();
                out[i] ^= mask.max(1);
            }
        }
        TRUNCATE => out.truncate(edits[0].0 % out.len()),
        _ => out.extend(edits.iter().map(|&(_, b)| b)),
    }
    out
}

fn parse(bytes: &[u8]) -> Result<(String, String, Vec<u8>), RequestError> {
    let request = read_request(&mut &bytes[..])?;
    Ok((request.method, request.path, request.body))
}

#[test]
fn valid_requests_parse() {
    let (method, path, body) = parse(GET).expect("GET parses");
    assert_eq!(method, "GET");
    assert_eq!(path, "/v1/suite/00112233445566778899aabbccddeeff");
    assert!(body.is_empty());
    let (method, _, body) = parse(&put()).expect("PUT parses");
    assert_eq!(method, "PUT");
    assert_eq!(body, b"sealed suite bytes");
}

#[test]
fn conflicting_content_lengths_are_bad_requests() {
    let conflicting =
        b"PUT /v1/suite/x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd";
    match parse(conflicting) {
        Err(RequestError::Bad(m)) => assert!(m.contains("conflicting"), "{m}"),
        other => panic!("expected a 400, got {other:?}"),
    }
    // Either order: the later header must not win silently.
    let reversed = b"PUT /v1/suite/x HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 3\r\n\r\nabc";
    assert!(matches!(parse(reversed), Err(RequestError::Bad(_))));
    // A repeated equal value frames the body unambiguously.
    let repeated = b"PUT /v1/suite/x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
    assert_eq!(parse(repeated).expect("parses").2, b"abc");
}

#[test]
fn signed_content_lengths_are_bad_requests() {
    // `Content-Length` is 1*DIGIT (RFC 9110 §8.6): a sign is not a
    // digit, even though integer parsing would accept it.
    for value in ["+5", "+0", "-0", ""] {
        let request = format!("PUT /v1/suite/x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcde");
        match parse(request.as_bytes()) {
            Err(RequestError::Bad(m)) => assert!(m.contains("Content-Length"), "{value}: {m}"),
            other => panic!("`{value}`: expected a 400, got {other:?}"),
        }
    }
}

fn edits() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0usize..1 << 16, 0u8..=255), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn damaged_requests_never_panic(
        is_put in any::<bool>(),
        kind in 0u8..=EXTEND,
        edits in edits(),
    ) {
        let seed = if is_put { put() } else { GET.to_vec() };
        let parsed = parse(&damage(&seed, kind, &edits));
        prop_assert!(
            kind == FLIP || parsed.is_err(),
            "kind {} of a {} parsed",
            kind,
            if is_put { "PUT" } else { "GET" }
        );
    }
}
