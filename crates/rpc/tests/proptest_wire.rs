//! Property tests for the RPC wire formats: values, requests, responses,
//! and frames all round-trip, decoders reject garbage without panicking,
//! and a request or response decodes only from exactly its own bytes.

use dcperf_rpc::wire::WireError;
use dcperf_rpc::{frame, Request, Response, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy for arbitrary (bounded-depth) RPC values.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        (-1e300f64..1e300).prop_map(Value::F64),
        ".{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bin),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            proptest::collection::vec((".{0,12}", inner.clone()), 0..6).prop_map(|pairs| {
                let map: BTreeMap<String, Value> = pairs.into_iter().collect();
                Value::Map(map)
            }),
            proptest::collection::vec((any::<u32>(), inner), 0..6).prop_map(Value::Struct),
        ]
    })
}

/// A response of each status: 0 ok, 1 error, 2 deadline exceeded, 3
/// overloaded.
fn response(kind: u8, body: Vec<u8>) -> Response {
    match kind {
        0 => Response::ok(body),
        1 => Response::error(&String::from_utf8_lossy(&body)),
        2 => Response::deadline_exceeded(),
        _ => Response::overloaded(),
    }
}

/// Whether a decode failure is one of the typed wire errors.
fn is_typed(e: &WireError) -> bool {
    matches!(
        e,
        WireError::UnexpectedEof
            | WireError::VarintOverflow
            | WireError::InvalidLength(_)
            | WireError::UnknownTag(_)
            | WireError::InvalidUtf8
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn values_round_trip(value in value_strategy()) {
        let bytes = value.encode();
        let back = Value::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, value);
    }

    #[test]
    fn value_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Value::decode(&data);
    }

    #[test]
    fn requests_round_trip(
        corr in any::<u64>(),
        method in "[a-z_]{1,24}",
        body in proptest::collection::vec(any::<u8>(), 0..256),
        deadline_us in any::<u64>(),
    ) {
        let req = Request { corr, method, body, deadline_us };
        prop_assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
    }

    #[test]
    fn responses_round_trip(
        corr in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
        kind in 0u8..4,
    ) {
        let mut resp = response(kind, body);
        resp.corr = corr;
        prop_assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
    }

    /// Every field is required: no strict prefix of an encoding decodes.
    #[test]
    fn every_strict_prefix_fails_to_decode(
        corr in any::<u64>(),
        method in "[a-z_]{1,16}",
        body in proptest::collection::vec(any::<u8>(), 0..64),
        deadline_us in any::<u64>(),
        kind in 0u8..4,
    ) {
        let req = Request { corr, method, body: body.clone(), deadline_us }.encode();
        for cut in 0..req.len() {
            let decoded = Request::decode(&req[..cut]);
            prop_assert!(decoded.is_err_and(|e| is_typed(&e)), "request cut at {}", cut);
        }
        let mut resp = response(kind, body);
        resp.corr = corr;
        let resp = resp.encode();
        for cut in 0..resp.len() {
            let decoded = Response::decode(&resp[..cut]);
            prop_assert!(decoded.is_err_and(|e| is_typed(&e)), "response cut at {}", cut);
        }
    }

    /// Bytes after the last field are rejected, whatever they are.
    #[test]
    fn appended_bytes_are_rejected(
        corr in any::<u64>(),
        method in "[a-z_]{1,16}",
        body in proptest::collection::vec(any::<u8>(), 0..64),
        deadline_us in any::<u64>(),
        kind in 0u8..4,
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut req = Request { corr, method, body: body.clone(), deadline_us }.encode();
        req.extend_from_slice(&extra);
        prop_assert_eq!(
            Request::decode(&req),
            Err(WireError::InvalidLength(extra.len() as u64))
        );
        let mut resp = response(kind, body);
        resp.corr = corr;
        let mut resp = resp.encode();
        resp.extend_from_slice(&extra);
        prop_assert_eq!(
            Response::decode(&resp),
            Err(WireError::InvalidLength(extra.len() as u64))
        );
    }

    #[test]
    fn frames_round_trip_over_streams(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 0..8),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            frame::append_frame_with(&mut stream, |b| b.extend_from_slice(p))
                .expect("in-memory append succeeds");
        }
        let mut cursor = std::io::Cursor::new(stream);
        for p in &payloads {
            let got = frame::read_frame(&mut cursor).expect("reads").expect("present");
            prop_assert_eq!(&got, p);
        }
        prop_assert!(frame::read_frame(&mut cursor).expect("clean EOF").is_none());
    }

    /// A frame encoded in place is the length prefix followed by
    /// `encode()`, after whatever the buffer already held.
    #[test]
    fn frames_encoded_in_place_match_prefix_and_encode(
        corr in any::<u64>(),
        method in ".{0,24}",
        body in proptest::collection::vec(any::<u8>(), 0..512),
        deadline_us in any::<u64>(),
        kind in 0u8..4,
        earlier in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let req = Request { corr, method, body: body.clone(), deadline_us };
        let mut resp = response(kind, body);
        resp.corr = corr;
        let framed = |payload: Vec<u8>| {
            let mut frame = earlier.clone();
            frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frame.extend_from_slice(&payload);
            frame
        };
        let mut out = earlier.clone();
        let len = frame::append_frame_with(&mut out, |b| req.encode_into(b)).expect("fits");
        prop_assert_eq!(len, req.encode().len());
        prop_assert_eq!(out, framed(req.encode()));
        let mut out = earlier.clone();
        let len = frame::append_frame_with(&mut out, |b| resp.encode_into(b)).expect("fits");
        prop_assert_eq!(len, resp.encode().len());
        prop_assert_eq!(out, framed(resp.encode()));
    }

    /// Decoding into a reused request leaves nothing of what it held.
    #[test]
    fn decode_into_a_reused_request_equals_decode(
        corr in any::<u64>(),
        method in ".{0,24}",
        body in proptest::collection::vec(any::<u8>(), 0..256),
        deadline_us in any::<u64>(),
        old_method in ".{0,48}",
        old_body in proptest::collection::vec(any::<u8>(), 0..512),
        old_corr in any::<u64>(),
        old_deadline_us in any::<u64>(),
    ) {
        let bytes = Request { corr, method, body, deadline_us }.encode();
        let mut reused = Request {
            corr: old_corr,
            method: old_method,
            body: old_body,
            deadline_us: old_deadline_us,
        };
        reused.decode_into(&bytes).expect("decodes");
        prop_assert_eq!(reused, Request::decode(&bytes).expect("decodes"));
    }

    #[test]
    fn request_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&data);
        let _ = Response::decode(&data);
    }

    /// Byte-mutation fuzz: flipping any byte of a valid encoding must
    /// either still decode or fail with a *typed*
    /// [`WireError`] — never a panic, never a mystery error.
    #[test]
    fn mutated_requests_fail_typed(
        corr in any::<u64>(),
        method in "[a-z_]{1,16}",
        body in proptest::collection::vec(any::<u8>(), 0..64),
        deadline_us in any::<u64>(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..255,
    ) {
        let req = Request { corr, method, body, deadline_us };
        let mut bytes = req.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        if let Err(e) = Request::decode(&bytes) {
            prop_assert!(is_typed(&e), "{:?}", e);
        }
    }

    #[test]
    fn mutated_responses_fail_typed(
        corr in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        flip_at in any::<usize>(),
        flip_bits in 1u8..255,
    ) {
        let mut resp = Response::ok(body);
        resp.corr = corr;
        let mut bytes = resp.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        if let Err(e) = Response::decode(&bytes) {
            prop_assert!(is_typed(&e), "{:?}", e);
        }
    }
}
