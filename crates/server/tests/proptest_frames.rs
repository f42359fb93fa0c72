//! Property-based tests for the wire codec (frames and protocol
//! messages): encoding round-trips exactly, and *any* byte stream —
//! truncated, oversized, bit-flipped, or random — either decodes or
//! returns a typed [`WireError`], never a panic.

use proptest::prelude::*;

use graphprof_server::frame::{
    read_frame, write_frame, Frame, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION,
};
use graphprof_server::proto::{
    KgmonVerb, MonRange, QueryKind, RegressScope, ReportFormat, Request, Response,
};

fn arb_frame() -> impl Strategy<Value = Frame> {
    (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..2048))
        .prop_map(|(kind, payload)| Frame::new(kind, payload))
}

fn arb_query_kind() -> impl Strategy<Value = QueryKind> {
    prop_oneof![Just(QueryKind::Flat), Just(QueryKind::Graph), Just(QueryKind::Sum)]
}

fn arb_mon_range() -> impl Strategy<Value = MonRange> {
    prop_oneof![
        Just(MonRange::Off),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| MonRange::Addrs(a, b)),
        "[a-z]{0,12}".prop_map(MonRange::Routine),
    ]
}

fn arb_verb() -> impl Strategy<Value = KgmonVerb> {
    prop_oneof![
        Just(KgmonVerb::On),
        Just(KgmonVerb::Off),
        Just(KgmonVerb::Status),
        Just(KgmonVerb::Reset),
        prop_oneof![Just(None), "[a-z]{1,12}".prop_map(Some),]
            .prop_map(|into| KgmonVerb::Extract { into }),
        arb_mon_range().prop_map(KgmonVerb::Moncontrol),
    ]
}

fn arb_format() -> impl Strategy<Value = ReportFormat> {
    prop_oneof![Just(ReportFormat::Text), Just(ReportFormat::Json)]
}

fn arb_scope() -> impl Strategy<Value = RegressScope> {
    prop_oneof![
        Just(RegressScope::Aggregate),
        any::<u64>().prop_map(RegressScope::Window),
        any::<u64>().prop_map(RegressScope::Baseline),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        ("[a-z]{0,16}", any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(series, seq, blob)| Request::Upload { series, seq, blob }),
        ("[a-z]{0,16}", any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(series, base_seq, seq, delta)| Request::UploadDelta {
                series,
                base_seq,
                seq,
                delta
            }),
        ("[a-z]{0,16}", arb_query_kind())
            .prop_map(|(series, kind)| Request::Query { series, kind }),
        ("[a-z]{0,16}", "[a-z]{0,16}", arb_format())
            .prop_map(|(before, after, format)| Request::Diff { before, after, format }),
        (
            ("[a-z]{0,16}", "[a-z]{0,16}", arb_scope(), arb_format()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |(
                    (before, after, scope, format),
                    (min_sigma_milli, min_ticks_milli, min_pct_milli),
                )| {
                    Request::Regress {
                        before,
                        after,
                        scope,
                        min_sigma_milli,
                        min_ticks_milli,
                        min_pct_milli,
                        format,
                    }
                }
            ),
        ("[a-z]{0,8}", arb_verb()).prop_map(|(vm, verb)| Request::Kgmon { vm, verb }),
        Just(Request::Stats),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        ("[a-z]{0,16}", any::<u64>(), any::<u64>())
            .prop_map(|(series, seq, total)| Response::Accepted { series, seq, total }),
        ("[a-z]{0,16}", any::<u64>(), prop_oneof![Just(None), any::<u64>().prop_map(Some)])
            .prop_map(|(series, seq, expected)| Response::Resync { series, seq, expected }),
        (any::<bool>(), ".{0,64}")
            .prop_map(|(regressed, report)| Response::Regress { regressed, report }),
        ".{0,64}".prop_map(Response::Text),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(Response::Blob),
        ".{0,64}".prop_map(Response::Error),
    ]
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame, DEFAULT_MAX_PAYLOAD).expect("encodes");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frames survive the codec byte-exactly, including back-to-back on
    /// one stream.
    #[test]
    fn frames_round_trip(frames in proptest::collection::vec(arb_frame(), 1..4)) {
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&encode(frame));
        }
        let mut reader = stream.as_slice();
        for frame in &frames {
            let back = read_frame(&mut reader, DEFAULT_MAX_PAYLOAD)
                .expect("decodes")
                .expect("a frame");
            prop_assert_eq!(&back, frame);
        }
        prop_assert!(read_frame(&mut reader, DEFAULT_MAX_PAYLOAD).expect("clean EOF").is_none());
    }

    /// Every proper prefix of an encoded frame is `Truncated` — the exact
    /// shape of a client disconnecting mid-upload.
    #[test]
    fn every_truncation_errors_cleanly(frame in arb_frame()) {
        let encoded = encode(&frame);
        for len in 1..encoded.len() {
            let result = read_frame(&mut &encoded[..len], DEFAULT_MAX_PAYLOAD);
            prop_assert!(
                matches!(result, Err(WireError::Truncated)),
                "prefix {} of {} gave {:?}", len, encoded.len(), result
            );
        }
    }

    /// A declared length over the reader's cap is rejected from the
    /// header alone, whatever bytes follow.
    #[test]
    fn oversized_is_rejected_at_the_header(
        kind in any::<u8>(),
        len in (65u32..u32::MAX),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(kind);
        buf.push(0);
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&tail);
        let result = read_frame(&mut buf.as_slice(), 64);
        prop_assert!(
            matches!(result, Err(WireError::Oversized { max: 64, .. })),
            "{result:?}"
        );
    }

    /// Corrupting any single header byte of a valid frame never panics:
    /// it decodes to the same frame only if the byte was redundant, and
    /// otherwise fails with a typed error. A frame at any version but
    /// [`VERSION`] is refused from the header alone.
    #[test]
    fn header_corruption_never_panics(frame in arb_frame(), at in 0usize..HEADER_LEN, bits in 1u8..=255) {
        let mut encoded = encode(&frame);
        encoded[at] ^= bits;
        let result = read_frame(&mut encoded.as_slice(), DEFAULT_MAX_PAYLOAD);
        if at == 4 || at == 5 {
            prop_assert!(matches!(result, Err(WireError::UnsupportedVersion { .. })), "{result:?}");
        }
    }

    /// Arbitrary bytes fed to the frame reader never panic.
    #[test]
    fn garbage_streams_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD);
    }

    /// Requests and responses round-trip through their frame encodings.
    #[test]
    fn requests_round_trip(request in arb_request()) {
        let back = Request::from_frame(&request.to_frame()).expect("decodes");
        prop_assert_eq!(back, request);
    }

    #[test]
    fn responses_round_trip(response in arb_response()) {
        let back = Response::from_frame(&response.to_frame()).expect("decodes");
        prop_assert_eq!(back, response);
    }

    /// Arbitrary payloads under arbitrary kinds either decode or return
    /// `Malformed` — message decoding is total.
    #[test]
    fn arbitrary_payloads_never_panic(frame in arb_frame()) {
        if let Err(e) = Request::from_frame(&frame) {
            prop_assert!(matches!(e, WireError::Malformed(_)), "{e:?}");
        }
        if let Err(e) = Response::from_frame(&frame) {
            prop_assert!(matches!(e, WireError::Malformed(_)), "{e:?}");
        }
    }

    /// Truncating a valid message payload at any point is `Malformed`,
    /// never a panic or a bogus decode of trailing garbage — a diff
    /// missing only its trailing format byte included.
    #[test]
    fn truncated_messages_are_malformed(request in arb_request()) {
        let frame = request.to_frame();
        for len in 0..frame.payload.len() {
            let cut = Frame::new(frame.kind, frame.payload[..len].to_vec());
            prop_assert!(
                matches!(Request::from_frame(&cut), Err(WireError::Malformed(_))),
                "{request:?} cut to {len}"
            );
        }
    }
}
