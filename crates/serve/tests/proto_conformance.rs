//! Wire-protocol conformance suite.
//!
//! Pins the exact bytes of every request frame and every response
//! status (golden vectors — a framing change must show up here as a
//! deliberate re-record), proves malformed frames are rejected without
//! killing the daemon, and checks that a pipelining client is held to
//! the connection's read buffer and that concurrent clients receive
//! byte-identical responses regardless of the worker count.

mod common;

use cce_codec::BlockImage;
use cce_serve::fault::{duplex, DuplexStream};
use cce_serve::proto::{
    encode_frame, read_frame, Frame, Request, Status, HEADER_LEN, MAX_REQUEST_PAYLOAD,
    MAX_RESPONSE_PAYLOAD,
};
use cce_serve::server::READ_BUFFER_BYTES;
use cce_serve::{Client, ServeConfig, Server};
use common::{open_blocks, publish_blocks, Identity};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cce-serve-proto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn publish_identity(dir: &Path, blocks: usize) -> Vec<Vec<u8>> {
    let data: Vec<Vec<u8>> = (0..blocks).map(|i| vec![(i * 31 % 253) as u8; 48 + i % 16]).collect();
    publish_blocks(dir, &data);
    data
}

fn server_for(dir: &Path, blocks: &[Vec<u8>], config: ServeConfig) -> Server {
    Server::new(open_blocks(dir, blocks).unwrap(), Box::new(Identity), config)
}

/// Spawns an in-memory connection to `server`, returning the client
/// end as a typed [`Client`].
fn connect(server: &Server) -> Client<DuplexStream> {
    Client::new(connect_raw(server))
}

/// Same, but hands back the raw stream for byte-level driving.
fn connect_raw(server: &Server) -> DuplexStream {
    let (client_end, server_end) = duplex();
    let (reader, writer) = server_end.split();
    let server = server.clone();
    std::thread::spawn(move || server.handle_connection(reader, writer));
    client_end
}

// ---------------------------------------------------------------------
// Golden frame vectors
// ---------------------------------------------------------------------

/// Every request type's full wire encoding, byte for byte.  These are
/// the protocol: a change here breaks every deployed client.
#[test]
fn golden_request_frames_are_pinned() {
    let vectors: [(Request, &[u8]); 5] = [
        (Request::GetManifest, b"CSRV\x01\x00\x00\x00\x00"),
        (Request::GetBlock(7), b"CSRV\x02\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x07"),
        (
            Request::DecodeBlock(0x0102_0304_0506_0708),
            b"CSRV\x03\x00\x00\x00\x08\x01\x02\x03\x04\x05\x06\x07\x08",
        ),
        (Request::Stats, b"CSRV\x04\x00\x00\x00\x00"),
        (Request::Shutdown, b"CSRV\x05\x00\x00\x00\x00"),
    ];
    for (request, golden) in vectors {
        assert_eq!(request.encode(), golden, "{request:?} drifted from its golden encoding");
        // And the pinned bytes parse back to the same request.
        let frame = read_frame(&mut &golden[..], MAX_REQUEST_PAYLOAD).unwrap().unwrap();
        assert_eq!(Request::parse(&frame).unwrap(), request);
    }
}

/// Response status bytes and a full golden response frame.
#[test]
fn golden_response_frames_are_pinned() {
    let codes: [(Status, u8); 6] = [
        (Status::Ok, 0x80),
        (Status::BadRequest, 0xe1),
        (Status::NotFound, 0xe2),
        (Status::Corrupt, 0xe3),
        (Status::Busy, 0xe5),
        (Status::Internal, 0xe6),
    ];
    for (status, code) in codes {
        assert_eq!(status.code(), code, "{status:?} status byte drifted");
        assert_eq!(Status::from_code(code), Some(status));
    }
    assert_eq!(
        encode_frame(Status::Ok.code(), b"ok"),
        b"CSRV\x80\x00\x00\x00\x02ok",
        "response framing drifted"
    );
    assert_eq!(Status::from_code(0xe4), None, "0xe4 is unassigned");
    assert_eq!(HEADER_LEN, 9);
    assert_eq!(MAX_REQUEST_PAYLOAD, 4096);
    const _: () = assert!(
        MAX_RESPONSE_PAYLOAD >= 4 + BlockImage::MAX_BLOCK_SIZE + BlockImage::BLOCK_SLACK,
        "block responses, the largest, need room"
    );
}

// ---------------------------------------------------------------------
// Malformed frames against a live daemon
// ---------------------------------------------------------------------

/// Reads one response frame off a raw stream.
fn read_response(stream: &mut DuplexStream) -> Frame {
    read_frame(stream, MAX_RESPONSE_PAYLOAD).unwrap().expect("a response frame")
}

/// An unknown opcode (framing intact) answers `BadRequest` and the
/// connection keeps serving.
#[test]
fn unknown_opcode_gets_bad_request_and_the_connection_survives() {
    let dir = temp_dir("badop");
    let blocks = publish_identity(&dir, 2);
    let server = server_for(&dir, &blocks, ServeConfig::default());
    let mut stream = connect_raw(&server);
    stream.write_all(&encode_frame(0x7f, &[])).unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.opcode, Status::BadRequest.code());
    assert!(String::from_utf8_lossy(&response.payload).contains("unknown opcode"));
    // Framing never desynced: a well-formed request still answers.
    stream.write_all(&Request::Stats.encode()).unwrap();
    assert_eq!(read_response(&mut stream).opcode, Status::Ok.code());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A wrong-sized payload for a known opcode is equally survivable.
#[test]
fn wrong_payload_size_gets_bad_request_and_the_connection_survives() {
    let dir = temp_dir("badsize");
    let blocks = publish_identity(&dir, 2);
    let server = server_for(&dir, &blocks, ServeConfig::default());
    let mut stream = connect_raw(&server);
    stream.write_all(&encode_frame(0x02, &[0; 4])).unwrap();
    assert_eq!(read_response(&mut stream).opcode, Status::BadRequest.code());
    stream.write_all(&Request::GetBlock(0).encode()).unwrap();
    assert_eq!(read_response(&mut stream).opcode, Status::Ok.code());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bad magic desyncs the stream: the daemon answers `BadRequest`
/// best-effort and closes that connection — but keeps accepting new
/// ones.
#[test]
fn bad_magic_closes_the_connection_but_not_the_daemon() {
    let dir = temp_dir("badmagic");
    let blocks = publish_identity(&dir, 2);
    let server = server_for(&dir, &blocks, ServeConfig::default());
    let mut stream = connect_raw(&server);
    stream.write_all(b"XSRV\x01\x00\x00\x00\x00").unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.opcode, Status::BadRequest.code());
    assert!(String::from_utf8_lossy(&response.payload).contains("bad magic"));
    // The connection is gone (EOF, not a hang) ...
    assert!(read_frame(&mut stream, MAX_RESPONSE_PAYLOAD).unwrap().is_none());
    // ... while the daemon serves fresh connections.
    let mut client = connect(&server);
    assert!(client.stats().unwrap().contains("\"requests\":"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A declared length beyond the request cap is refused before
/// allocation, same closure semantics as bad magic.
#[test]
fn oversized_declared_length_is_refused_before_allocation() {
    let dir = temp_dir("huge");
    let blocks = publish_identity(&dir, 2);
    let server = server_for(&dir, &blocks, ServeConfig::default());
    let mut stream = connect_raw(&server);
    let mut huge = encode_frame(0x01, &[]);
    huge[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
    stream.write_all(&huge).unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.opcode, Status::BadRequest.code());
    assert!(String::from_utf8_lossy(&response.payload).contains("cap"));
    assert!(read_frame(&mut stream, MAX_RESPONSE_PAYLOAD).unwrap().is_none());
    let mut client = connect(&server);
    assert!(client.get_manifest().is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Concurrency: bounded buffering, worker-count independence
// ---------------------------------------------------------------------

/// A codec whose decodes wait until the test opens its gate.
struct Gated {
    gate: Arc<(Mutex<bool>, Condvar)>,
    entered: Arc<AtomicBool>,
}

impl cce_codec::BlockCodec for Gated {
    fn name(&self) -> &'static str {
        "identity"
    }
    fn block_size(&self) -> usize {
        64
    }
    fn model_bytes(&self) -> usize {
        0
    }
    fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, cce_codec::CodecError> {
        Ok(chunk.to_vec())
    }
    fn decompress_block(
        &self,
        block: &[u8],
        _out_len: usize,
    ) -> Result<Vec<u8>, cce_codec::CodecError> {
        self.entered.store(true, Ordering::SeqCst);
        let (open, cv) = &*self.gate;
        let _open = cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap();
        Ok(block.to_vec())
    }
}

/// Counts the bytes read through it.
struct Counting<R> {
    inner: R,
    read: Arc<AtomicUsize>,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.fetch_add(n, Ordering::SeqCst);
        Ok(n)
    }
}

/// A pipelined client that fires every request before reading any
/// response is held back by its transport, never buffered by the
/// daemon: while the first decode is held, the connection has taken at
/// most one read buffer plus the frame being answered off the stream.
/// Every answer still arrives, in order.
#[test]
fn pipelined_requests_stay_within_the_queue_bound() {
    let dir = temp_dir("pipeline");
    let blocks = publish_identity(&dir, 6);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let entered = Arc::new(AtomicBool::new(false));
    let codec = Gated { gate: gate.clone(), entered: entered.clone() };
    let server =
        Server::new(open_blocks(&dir, &blocks).unwrap(), Box::new(codec), ServeConfig::default());
    let (mut stream, server_end) = duplex();
    let (reader, writer) = server_end.split();
    let consumed = Arc::new(AtomicUsize::new(0));
    let counting = Counting { inner: reader, read: consumed.clone() };
    std::thread::spawn(move || server.handle_connection(counting, writer));

    let rounds = 8;
    let frame = Request::DecodeBlock(0).encode().len();
    let sent = rounds * blocks.len() * frame;
    let bound = READ_BUFFER_BYTES + frame;
    assert!(sent > bound, "{sent} pipelined bytes cannot test a {bound}-byte bound");
    for _ in 0..rounds {
        for i in 0..blocks.len() {
            stream.write_all(&Request::DecodeBlock(i as u64).encode()).unwrap();
        }
    }
    while !entered.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Give an over-eager reader time to show itself.
    std::thread::sleep(Duration::from_millis(50));
    let held = consumed.load(Ordering::SeqCst);
    assert!(held <= bound, "took {held} bytes ahead of its answers (bound {bound})");
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();

    for _ in 0..rounds {
        for expect in &blocks {
            let response = read_response(&mut stream);
            assert_eq!(response.opcode, Status::Ok.code());
            assert_eq!(&response.payload, expect, "responses out of order or corrupted");
        }
    }
    assert_eq!(consumed.load(Ordering::SeqCst), sent);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Eight concurrent clients each pull every block (raw and decoded)
/// and must see byte-identical payloads no matter how many LRU
/// stripes the daemon runs.
#[test]
fn concurrent_clients_get_identical_bytes_across_worker_counts() {
    let dir = temp_dir("workers");
    let blocks = publish_identity(&dir, 9);
    let mut transcripts = Vec::new();
    for workers in [1usize, 2, 8] {
        let config = ServeConfig { workers, ..ServeConfig::default() };
        let server = server_for(&dir, &blocks, config);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let server = server.clone();
                let count = blocks.len() as u64;
                std::thread::spawn(move || {
                    let mut client = connect(&server);
                    let mut transcript = Vec::new();
                    for n in 0..count {
                        let (data, ulen) = client.get_block(n).unwrap();
                        transcript.push((n, data, ulen));
                        let decoded = client.decode_block(n).unwrap();
                        assert_eq!(decoded.len(), ulen);
                        transcript.push((n, decoded, ulen));
                    }
                    transcript
                })
            })
            .collect();
        let mut per_config: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every client of this configuration saw the same bytes.
        per_config.dedup();
        assert_eq!(per_config.len(), 1, "{workers} workers: clients disagreed");
        transcripts.push(per_config.pop().unwrap());
    }
    transcripts.dedup();
    assert_eq!(transcripts.len(), 1, "worker count changed served bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}
