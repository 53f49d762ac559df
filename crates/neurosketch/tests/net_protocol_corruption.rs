//! Adversarial tests for the NSKW wire protocol, mirroring the NSK2
//! container suite (`persist_corruption.rs`): every corruption of the
//! byte stream — truncated frames, single-byte flips, oversized
//! declared lengths, garbage prologues — must come back as a typed
//! [`NetError`], never a panic; a stepped server's farewell to a
//! violator carries exactly the error the decoder reports; and frames
//! delivered in any chunking decode the same on either side. A
//! violator's isolation from other connections, and torn writes
//! served, are `tests/composition.rs`'s wire leg.

mod common;

use common::SumDeployment;
use neurosketch::deploy::LiveDeployment;
use neurosketch::net::{
    decode_frame, encode_frame, encode_frame_into, Frame, NetClient, NetError, NetOptions,
    NetServer, FRAME_HEADER, MAX_QUERY_DIMS, NET_MAGIC, NET_VERSION,
};
use proptest::prelude::*;
use query::exec::fnv1a_64;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A canonical query frame to corrupt (built fresh per case — cheap).
fn sample_frame() -> Vec<u8> {
    encode_frame(&Frame::Query {
        id: 42,
        query: vec![0.25, 0.75, 0.5],
    })
}

/// Decoding must be total: typed error, incomplete, or a full decode —
/// never a panic — for any damage the properties below inflict.
fn decode_is_total(bytes: &[u8], max_payload: u32) {
    let _ = decode_frame(bytes, max_payload);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any strict prefix of a valid frame either asks for more bytes
    /// or fails typed — and once the magic survived the cut, the error
    /// is never a bad-magic report.
    #[test]
    fn truncation_never_panics(frac in 0.0f64..1.0) {
        let frame = sample_frame();
        let cut = ((frame.len() - 1) as f64 * frac) as usize;
        match decode_frame(&frame[..cut], u32::MAX) {
            Ok(Some(_)) => prop_assert!(false, "a strict prefix decoded whole"),
            Ok(None) => {}
            Err(e) => prop_assert!(
                cut < 4 || !matches!(e, NetError::BadMagic { .. }),
                "magic was intact at cut {cut}: {e}"
            ),
        }
    }

    /// Every single-byte flip anywhere in a frame is refused (or, for
    /// flips that inflate the declared length, stalls waiting for
    /// bytes that never come) — never a silent mis-decode, never a
    /// panic.
    #[test]
    fn byte_flips_never_yield_a_wrong_frame(pos_frac in 0.0f64..1.0, flip in 1u32..256) {
        let mut frame = sample_frame();
        let pos = ((frame.len() - 1) as f64 * pos_frac) as usize;
        frame[pos] ^= flip as u8;
        match decode_frame(&frame, u32::MAX) {
            Ok(Some((decoded, _))) => {
                prop_assert!(false, "flip at {pos} decoded to {decoded:?}")
            }
            Ok(None) => prop_assert!(
                (6..FRAME_HEADER).contains(&pos),
                "flip at {pos} stalled the decoder"
            ),
            Err(_) => {}
        }
    }

    /// A header declaring an absurd payload length is refused as soon
    /// as the header is complete — before any payload is buffered —
    /// whenever it exceeds the negotiated cap.
    #[test]
    fn oversized_declared_lengths_are_refused_at_the_header(
        declared in 0u32..u32::MAX,
        cap in 1u32..1_048_576,
    ) {
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&NET_MAGIC);
        hdr.push(NET_VERSION);
        hdr.push(1); // query kind
        hdr.extend_from_slice(&declared.to_le_bytes());
        match decode_frame(&hdr, cap) {
            Err(NetError::Oversized { declared: d, max }) => {
                prop_assert_eq!((d, max), (declared, cap));
                prop_assert!(declared > cap);
            }
            Ok(None) => prop_assert!(declared <= cap),
            other => prop_assert!(false, "unexpected: {other:?}"),
        }
    }

    /// Garbage prologues of any length fail typed (or wait for the
    /// bytes that could still make them valid) — the decoder is total.
    #[test]
    fn garbage_prologues_never_panic(bytes in prop::collection::vec(0u32..256, 0..256)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        decode_is_total(&raw, 4096);
    }

    /// Valid frames embedded at arbitrary offsets inside garbage still
    /// never panic the decoder (it may refuse the garbage in front —
    /// that is the point).
    #[test]
    fn garbage_wrapped_frames_never_panic(
        prefix in prop::collection::vec(0u32..256, 0..32),
        suffix in prop::collection::vec(0u32..256, 0..32),
    ) {
        let mut raw: Vec<u8> = prefix.iter().map(|&b| b as u8).collect();
        raw.extend_from_slice(&sample_frame());
        raw.extend(suffix.iter().map(|&b| b as u8));
        decode_is_total(&raw, u32::MAX);
    }
}

/// A stepped server over [`SumDeployment`], driven from the test's own
/// thread so every read boundary is the test's choice.
fn sum_server(dims: usize) -> NetServer {
    let live = Arc::new(LiveDeployment::new(SumDeployment, 0));
    NetServer::bind("127.0.0.1:0", live, dims, NetOptions::default()).unwrap()
}

/// A frame with a valid envelope around an arbitrary payload, so only
/// the payload checks can refuse it.
fn enveloped(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&NET_MAGIC);
    bytes.push(NET_VERSION);
    bytes.push(kind);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    let sum = fnv1a_64(bytes.iter().copied());
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

fn query_payload(id: u64, declared_dims: u16, coords: &[f64]) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&id.to_le_bytes());
    p.extend_from_slice(&declared_dims.to_le_bytes());
    for c in coords {
        p.extend_from_slice(&c.to_le_bytes());
    }
    p
}

/// The server's query path never builds a [`Frame`], so it could in
/// principle judge a frame differently from [`decode_frame`]. It does
/// not: for every corruption this suite knows — envelope damage,
/// payload-structure damage behind a valid checksum, wrong-direction
/// frames — the farewell the server sends carries exactly the error
/// `decode_frame` returns for the same bytes, code and rendered text.
#[test]
fn server_query_path_reports_the_same_errors_as_decode_frame() {
    let max_payload = NetOptions::default().max_payload;
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    // Envelope damage.
    let mut flipped = sample_frame();
    *flipped.last_mut().unwrap() ^= 0xFF;
    cases.push(("flipped checksum", flipped));
    let mut flipped = sample_frame();
    flipped[FRAME_HEADER + 3] ^= 0x10;
    cases.push(("flipped payload byte", flipped));
    cases.push(("garbage", b"JUNKJUNKJUNK".to_vec()));
    cases.push(("short garbage", b"XS".to_vec()));
    let mut f = sample_frame();
    f[4] = 9;
    cases.push(("bad version", f));
    let mut f = sample_frame();
    f[5] = 99;
    cases.push(("bad kind", f));
    let mut hdr = sample_frame()[..6].to_vec();
    hdr.extend_from_slice(&u32::MAX.to_le_bytes());
    cases.push(("oversized", hdr));
    // Query payloads that are wrong behind a valid envelope.
    cases.push(("query too short", enveloped(1, &[0u8; 9])));
    cases.push(("zero dims", enveloped(1, &query_payload(1, 0, &[]))));
    cases.push((
        "dims past the ceiling",
        enveloped(1, &query_payload(1, 513, &[0.5; 513])),
    ));
    cases.push((
        "declares 4 dims, carries 1",
        enveloped(1, &query_payload(1, 4, &[0.5])),
    ));
    cases.push((
        "declares 1 dim, carries 3",
        enveloped(1, &query_payload(1, 1, &[0.5; 3])),
    ));
    cases.push((
        "nan coordinate",
        enveloped(1, &query_payload(1, 3, &[0.5, f64::NAN, 0.5])),
    ));
    cases.push((
        "infinite coordinate",
        enveloped(1, &query_payload(1, 3, &[f64::NEG_INFINITY, 0.5, 0.5])),
    ));
    // Other kinds: malformed payloads, then well-formed frames that
    // never travel client to server.
    cases.push(("info request with a payload", enveloped(5, &[1, 2, 3])));
    cases.push(("short answer", enveloped(2, &[0u8; 23])));
    cases.push((
        "reject with an unknown code",
        enveloped(3, &[0, 0, 0, 0, 0, 0, 0, 0, 77]),
    ));
    cases.push(("error with bad utf-8", enveloped(4, &[1, 2, 0, 0xFF, 0xFE])));
    cases.push((
        "answer sent by a client",
        encode_frame(&Frame::Answer {
            id: 1,
            generation: 0,
            value: 1.0,
        }),
    ));
    cases.push((
        "reject sent by a client",
        enveloped(3, &[0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ));

    let mut server = sum_server(3);
    let addr = server.local_addr();
    for (i, (what, bytes)) in cases.iter().enumerate() {
        let want = match decode_frame(bytes, max_payload) {
            Err(e) => e,
            Ok(Some((frame, _))) => {
                // Whole and well-formed: only its direction is wrong.
                assert!(!matches!(frame, Frame::Query { .. } | Frame::InfoRequest));
                NetError::UnexpectedKind { kind: bytes[5] }
            }
            Ok(None) => panic!("{what}: not a decidable case"),
        };
        let mut client = NetClient::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        client.send_raw(bytes).unwrap();
        server.pump_io();
        assert_eq!(server.stats().protocol_errors, i as u64 + 1, "{what}");
        match client.recv() {
            Ok(Frame::Error { code, message }) => {
                assert_eq!((code, message), (want.code(), want.to_string()), "{what}");
            }
            other => panic!("{what}: expected the farewell, got {other:?}"),
        }
        server.pump_io();
        assert_eq!(server.connections(), 0, "{what}: violator not closed");
    }
    // A well-formed query of the wrong dimensionality passes every
    // decoder check and fails the server's own, typed the same way.
    let mut client = NetClient::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.send_query(&[0.5, 0.5]).unwrap();
    server.pump_io();
    let want = NetError::BadQueryDim {
        got: 2,
        expected: 3,
    };
    match client.recv() {
        Ok(Frame::Error { code, message }) => {
            assert_eq!((code, message), (want.code(), want.to_string()));
        }
        other => panic!("expected the farewell, got {other:?}"),
    }
    assert_eq!(server.stats().answered, 0);
}

/// Chunk sizes that straddle every boundary that matters: single
/// bytes, one byte either side of a 60-byte query frame and of the old
/// 4 KiB read step, and everything in one write.
const CHUNKINGS: [usize; 8] = [1, 59, 60, 61, 4095, 4096, 4097, usize::MAX];

/// Client → server: a stream of 512-dimension queries (4 124 bytes a
/// frame — each larger than the 4 KiB reads the server used to make,
/// the stream spanning several 64 KiB of receive buffer) delivered to
/// a stepped server in every chunking is answered identically: the
/// same ids in the same order with the same values, no violation.
#[test]
fn chunked_delivery_to_the_server_decodes_the_same_queries() {
    let queries: Vec<Vec<f64>> = (0..40)
        .map(|i| (0..MAX_QUERY_DIMS).map(|d| (i * 1000 + d) as f64).collect())
        .collect();
    let mut stream = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        encode_frame_into(
            &Frame::Query {
                id: i as u64,
                query: q.clone(),
            },
            &mut stream,
        );
    }
    assert!(stream.len() > 2 * 64 * 1024);
    let mut server = sum_server(MAX_QUERY_DIMS);
    let addr = server.local_addr();
    for chunk in CHUNKINGS {
        let mut client = NetClient::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        for piece in stream.chunks(chunk.min(stream.len())) {
            client.send_raw(piece).unwrap();
            server.pump_io();
            while server.serve_pending_batch().is_some() {}
        }
        server.pump_io();
        for (i, q) in queries.iter().enumerate() {
            server.pump_io();
            match client.recv().unwrap() {
                Frame::Answer { id, value, .. } => {
                    assert_eq!(id, i as u64, "chunk {chunk}");
                    assert_eq!(value, q.iter().sum::<f64>(), "chunk {chunk}");
                }
                other => panic!("chunk {chunk}: {other:?}"),
            }
        }
    }
    assert_eq!(server.stats().protocol_errors, 0);
    assert_eq!(
        server.stats().answered,
        (CHUNKINGS.len() * queries.len()) as u64
    );
}

/// Server → client: a peer writing a response stream — many small
/// answers, then an `Error` frame about as large as the client's
/// 64 KiB payload cap admits (twice its read step; the format's
/// largest, a 65 535-byte message, is the unit test's, under no cap),
/// then more answers — in every chunking; [`NetClient::recv`] returns
/// the same frames. Then the peer hangs up halfway through a frame: the client
/// reports `Truncated` with exactly the bytes it could not use.
#[test]
fn chunked_delivery_to_the_client_decodes_the_same_frames() {
    let mut frames: Vec<Frame> = (0..2000)
        .map(|i| Frame::Answer {
            id: i,
            generation: 7,
            value: i as f64 * 0.5,
        })
        .collect();
    frames.insert(
        1500,
        Frame::Error {
            code: 4,
            message: "e".repeat(65_000),
        },
    );
    let mut stream = Vec::new();
    for frame in &frames {
        encode_frame_into(frame, &mut stream);
    }
    let tail = encode_frame(&Frame::InfoRequest);
    const HALF: usize = 11;
    stream.extend_from_slice(&tail[..HALF]);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    for chunk in CHUNKINGS {
        let mut client = NetClient::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_nodelay(true).unwrap();
        let bytes = stream.clone();
        let writer = std::thread::spawn(move || {
            for piece in bytes.chunks(chunk.min(bytes.len())) {
                peer.write_all(piece).unwrap();
            }
        }); // `peer` dropped with the thread: the hangup
        for (i, want) in frames.iter().enumerate() {
            let got = client.recv().unwrap();
            assert!(&got == want, "chunk {chunk}: frame {i} differs");
        }
        assert_eq!(
            client.recv().unwrap_err(),
            NetError::Truncated {
                have: HALF,
                need: 0
            },
            "chunk {chunk}"
        );
        writer.join().unwrap();
    }
}

/// The server's side of a mid-frame hangup, up to a size that spans its
/// receive buffer's growth: any prefix of a frame that never completes
/// is a counted protocol error and a closed connection.
#[test]
fn hangup_mid_frame_is_a_counted_protocol_error() {
    let mut server = sum_server(3);
    let whole = enveloped(4, &[b'z'; 65_000]);
    for cut in [7usize, 4097, 64_000] {
        let before = server.stats();
        let mut peer = TcpStream::connect(server.local_addr()).unwrap();
        peer.write_all(&whole[..cut]).unwrap();
        server.pump_io();
        assert_eq!(server.connections(), 1, "a prefix is not a violation");
        drop(peer);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.connections() > 0 {
            server.pump_io();
            assert!(std::time::Instant::now() < deadline, "hangup unnoticed");
        }
        let after = server.stats();
        assert_eq!(
            after.protocol_errors,
            before.protocol_errors + 1,
            "cut {cut}"
        );
        assert_eq!(after.closed, before.closed + 1);
    }
}
