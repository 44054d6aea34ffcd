//! Fault-injection harness: the daemon's resilience contract under
//! storage corruption and connection failure.
//!
//! Every scenario asserts two things — the failure surfaces as a
//! *typed* error (never a panic, never a hang), and the daemon keeps
//! serving fresh connections afterwards.  Scenarios covered: a
//! corrupted run, a truncated image, a truncated or garbled digest
//! record, an oversized request frame, a mid-request client
//! disconnect, an I/O error mid-stream, a client limping along on
//! 1-byte reads, a truncated response, a connection flood past the
//! daemon's cap, a run corrupted after the daemon verified and cached
//! it, and a decode job that panics.

mod common;

use cce_serve::fault::{duplex, DuplexStream, Fault, FaultReader, FaultStream};
use cce_serve::proto::{read_frame, Request, Status, MAX_RESPONSE_PAYLOAD};
use cce_serve::record::{DigestRecord, IMAGE_FILE, RECORD_FILE};
use cce_serve::server::MAX_CONNECTIONS;
use cce_serve::{verify_dir, Client, ServeConfig, ServeError, Server};
use common::{open_blocks, publish_blocks, Identity};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cce-serve-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Six 56-byte identity blocks.
fn fixture() -> Vec<Vec<u8>> {
    (0..6).map(|i| vec![(i * 41 % 249) as u8; 56]).collect()
}

/// Publishes [`fixture`] in 128-byte runs (two blocks each), so
/// corrupting run 0 leaves the other runs healthy.
fn publish_two_chunks(dir: &Path) -> Vec<Vec<u8>> {
    let blocks = fixture();
    assert_eq!(publish_blocks(dir, &blocks, 128), 3, "fixture must span multiple runs");
    blocks
}

fn server_for(dir: &Path) -> Server {
    Server::new(open_blocks(dir, &fixture()).unwrap(), Box::new(Identity), ServeConfig::default())
}

fn connect(server: &Server) -> Client<DuplexStream> {
    let (client_end, server_end) = duplex();
    let (reader, writer) = server_end.split();
    let server = server.clone();
    std::thread::spawn(move || server.handle_connection(reader, writer));
    Client::new(client_end)
}

/// Flips one byte in the middle of run `index` of the image.
fn corrupt_chunk(dir: &Path, index: usize) {
    let run = DigestRecord::read(dir).unwrap().runs()[index];
    let path = dir.join(IMAGE_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[(run.start + run.len / 2) as usize] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
}

/// Decodes like [`Identity`] but panics on blocks whose bytes start
/// with `poison`.
struct PanicsOn {
    poison: u8,
}

impl cce_codec::BlockCodec for PanicsOn {
    fn name(&self) -> &'static str {
        "panics-on"
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
        assert_ne!(block.first(), Some(&self.poison), "injected codec panic");
        Ok(block.to_vec())
    }
}

// Scenario 1: a flipped byte in a run.
#[test]
fn corrupt_chunk_is_a_typed_error_and_the_daemon_survives() {
    let dir = temp_dir("corrupt-chunk");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    corrupt_chunk(&dir, 0);
    let mut client = connect(&server);
    // Every block in the poisoned run answers Corrupt naming the run,
    // on both the raw and the decoded path, on every read.
    for _ in 0..2 {
        for block in [0, 1] {
            let err = client.get_block(block).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("run 0:"), "{err}");
            let err = client.decode_block(block).unwrap_err();
            assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("run 0:"), "{err}");
        }
    }
    // The same connection still serves the healthy runs and metadata.
    let last = blocks.len() as u64 - 1;
    assert_eq!(client.decode_block(last).unwrap(), blocks[last as usize]);
    assert!(client.get_manifest().is_ok());
    // And verify tells the truth about the directory.
    let err = verify_dir(&dir).unwrap_err();
    assert!(err.to_string().contains("image.cce run 0:"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 2: the image cut short on disk.  At open and from verify it
// is a typed error naming the image; cut under a running daemon, the
// runs it lost answer Corrupt naming them.
#[test]
fn truncated_chunk_file_is_a_typed_error_not_a_panic() {
    let dir = temp_dir("truncated-chunk");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    let path = dir.join(IMAGE_FILE);
    let bytes = std::fs::read(&path).unwrap();
    // Keep the head and run 0 (blocks 0 and 1) and half of run 1.
    let run = DigestRecord::read(&dir).unwrap().runs()[1];
    std::fs::write(&path, &bytes[..(run.start + run.len / 2) as usize]).unwrap();
    let mut client = connect(&server);
    let err = client.get_block(2).unwrap_err();
    assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("run 1:"), "{err}");
    // Run 0 is untouched.
    assert_eq!(client.decode_block(0).unwrap(), blocks[0]);
    for err in [open_blocks(&dir, &blocks).err().expect("opened"), verify_dir(&dir).unwrap_err()] {
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("corrupt image.cce:"), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 3: a truncated or garbled digest record is refused at open
// (and by verify), with a typed error — a daemon can never start over
// a half record.
#[test]
fn truncated_manifest_is_refused_with_a_typed_error() {
    let dir = temp_dir("truncated-record");
    let blocks = publish_two_chunks(&dir);
    let path = dir.join(RECORD_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let garbled = |at: usize| {
        let mut bad = bytes.clone();
        bad[at] ^= 0x08;
        bad
    };
    let cases = [0, 1, bytes.len() / 2, bytes.len() - 2]
        .map(|keep| bytes[..keep].to_vec())
        .into_iter()
        .chain([3, 9, 20, bytes.len() - 1].map(garbled));
    for (case, bad) in cases.enumerate() {
        std::fs::write(&path, &bad).unwrap();
        let err = open_blocks(&dir, &blocks).err().expect("a damaged record opened");
        assert!(matches!(err, ServeError::Corrupt { .. }), "case {case}: {err}");
        assert!(err.to_string().contains(RECORD_FILE), "case {case}: {err}");
        assert!(verify_dir(&dir).is_err(), "case {case}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 4: an oversized request frame is refused before allocation;
// the connection closes, the daemon does not.
#[test]
fn oversized_request_frame_survives_as_bad_request() {
    let dir = temp_dir("oversized");
    publish_two_chunks(&dir);
    let server = server_for(&dir);
    let (mut stream, server_end) = duplex();
    let (reader, writer) = server_end.split();
    {
        let server = server.clone();
        std::thread::spawn(move || server.handle_connection(reader, writer));
    }
    let mut huge = Request::GetManifest.encode();
    huge[5..9].copy_from_slice(&0x4000_0000u32.to_be_bytes());
    stream.write_all(&huge).unwrap();
    let response = read_frame(&mut stream, MAX_RESPONSE_PAYLOAD).unwrap().expect("a response");
    assert_eq!(response.opcode, 0xe1, "expected BadRequest");
    assert!(read_frame(&mut stream, MAX_RESPONSE_PAYLOAD).unwrap().is_none(), "then EOF");
    let mut client = connect(&server);
    assert!(client.get_manifest().is_ok(), "daemon died with the bad connection");
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 5: the client vanishes mid-request (its write side fails
// immediately): the handler returns instead of spinning, and the
// daemon keeps serving.
#[test]
fn mid_request_disconnect_never_kills_the_daemon() {
    let dir = temp_dir("disconnect");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    let (mut client_end, server_end) = duplex();
    let (reader, writer) = server_end.split();
    // The server's very first response write fails (peer reset).
    let faulty_writer = FaultStream::new(writer, Fault::None, Fault::ErrorAt(0));
    let handler = {
        let server = server.clone();
        std::thread::spawn(move || server.handle_connection(reader, faulty_writer))
    };
    client_end.write_all(&Request::GetManifest.encode()).unwrap();
    handler.join().expect("handler must return cleanly, not panic");
    let mut client = connect(&server);
    assert_eq!(client.decode_block(0).unwrap(), blocks[0]);
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 6: the connection errors out mid-frame (connection reset at
// byte N): typed close, daemon alive.
#[test]
fn io_error_mid_frame_closes_only_that_connection() {
    let dir = temp_dir("ioerror");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    let (mut client_end, server_end) = duplex();
    let (reader, writer) = server_end.split();
    // The reset lands inside the first frame's header.
    let faulty_reader = FaultReader::new(reader, Fault::ErrorAt(4));
    let handler = {
        let server = server.clone();
        std::thread::spawn(move || server.handle_connection(faulty_reader, writer))
    };
    client_end.write_all(&Request::Stats.encode()).unwrap();
    // Best-effort error response (Internal), then EOF; the write side
    // may already be gone, in which case a clean EOF is equally fine.
    if let Some(frame) = read_frame(&mut client_end, MAX_RESPONSE_PAYLOAD).unwrap() {
        assert_eq!(frame.opcode, 0xe6, "expected Internal for an I/O error");
    }
    handler.join().expect("handler must return cleanly, not panic");
    let mut client = connect(&server);
    assert_eq!(client.decode_block(1).unwrap(), blocks[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 7: a pathologically slow client (1-byte reads on the
// server side) is merely slow — every response still arrives intact.
#[test]
fn one_byte_short_reads_still_serve_every_block() {
    let dir = temp_dir("shortreads");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    let (client_end, server_end) = duplex();
    let (reader, writer) = server_end.split();
    let trickle = FaultReader::new(reader, Fault::ShortReads(1));
    {
        let server = server.clone();
        std::thread::spawn(move || server.handle_connection(trickle, writer));
    }
    let mut client = Client::new(client_end);
    for (i, expect) in blocks.iter().enumerate() {
        let (data, ulen) = client.get_block(i as u64).unwrap();
        assert_eq!(&data, expect);
        assert_eq!(ulen, expect.len());
        assert_eq!(&client.decode_block(i as u64).unwrap(), expect);
    }
    client.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 8: a truncated *response* stream on the client side is a
// typed protocol error for the client library, not a hang or panic.
#[test]
fn client_sees_truncated_response_as_a_typed_error() {
    let dir = temp_dir("client-trunc");
    publish_two_chunks(&dir);
    let server = server_for(&dir);
    let (client_end, server_end) = duplex();
    let (reader, writer) = server_end.split();
    {
        let server = server.clone();
        std::thread::spawn(move || server.handle_connection(reader, writer));
    }
    // The client's view of the server truncates after 5 bytes of the
    // response (mid-header).
    let faulty = FaultStream::new(client_end, Fault::TruncateAt(5), Fault::None);
    let mut client = Client::new(faulty);
    let err = client.get_manifest().unwrap_err();
    assert!(matches!(err, ServeError::Proto(_)), "{err}");
    assert!(err.to_string().contains("mid-frame"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 9: a connection flood, over a Unix socket and over TCP.
// Past the cap, connections are answered `Busy` and closed without a
// thread, the live count never exceeds the cap, an admitted connection
// keeps answering, and a slot frees once an admitted flooder hangs up.
#[test]
fn connection_flood_is_capped_and_admitted_clients_keep_answering() {
    let dir = temp_dir("flood");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    let socket = std::env::temp_dir().join(format!("cce-serve-flood-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let daemon = {
        let server = server.clone();
        let socket = socket.clone();
        std::thread::spawn(move || server.serve_unix(&socket))
    };
    // Every read times out, so a daemon that answers wrongly fails the
    // test instead of hanging it.
    flood_past_the_cap(&server, &blocks, || {
        let stream = UnixStream::connect(&socket)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(stream)
    });
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connection_flood_over_tcp_is_capped_the_same_way() {
    let dir = temp_dir("flood-tcp");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    let (bound_tx, bound_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve_tcp("127.0.0.1:0", |addr| bound_tx.send(addr).unwrap())
        })
    };
    let addr = bound_rx.recv().unwrap();
    flood_past_the_cap(&server, &blocks, || {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(stream)
    });
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Drives scenario 9 against `server`, which is listening behind
/// `dial`, and shuts it down at the end.
fn flood_past_the_cap<S: Read + Write>(
    server: &Server,
    blocks: &[Vec<u8>],
    dial: impl Fn() -> std::io::Result<S>,
) {
    let start = Instant::now();
    let mut client = loop {
        match dial() {
            Ok(stream) => break Client::new(stream),
            Err(e) if start.elapsed() > Duration::from_secs(10) => {
                panic!("daemon never bound: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    assert_eq!(client.decode_block(0).unwrap(), blocks[0]);

    // Sample the live count for the whole flood.
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let monitor = {
        let (server, done, peak) = (server.clone(), done.clone(), peak.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                peak.fetch_max(server.live_connections(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        })
    };
    // Fill the remaining slots; each answers, so each is admitted.
    let mut admitted: Vec<_> = (1..MAX_CONNECTIONS)
        .map(|_| {
            let mut flooder = Client::new(dial().unwrap());
            assert!(flooder.stats().is_ok());
            flooder
        })
        .collect();
    assert_eq!(server.live_connections(), MAX_CONNECTIONS);
    // Everything past the cap is answered Busy, then closed.
    for _ in 0..16 {
        let mut flooder = dial().unwrap();
        let frame = read_frame(&mut flooder, MAX_RESPONSE_PAYLOAD).unwrap().expect("a reply");
        assert_eq!(frame.opcode, Status::Busy.code());
        assert!(read_frame(&mut flooder, MAX_RESPONSE_PAYLOAD).unwrap().is_none(), "then EOF");
    }
    // A client that sends at once usually has its request unread when
    // the daemon closes (over TCP that close is a reset); it still
    // reads the Busy reply.
    for _ in 0..16 {
        let mut eager = Client::new(dial().unwrap());
        assert!(matches!(eager.stats(), Err(ServeError::Busy)));
    }
    // So does one that sends only after the daemon has closed.  The
    // pause lets the daemon close first; were it slower, the reply
    // would be Busy too.
    let mut late = Client::new(dial().unwrap());
    std::thread::sleep(Duration::from_millis(100));
    assert!(matches!(late.stats(), Err(ServeError::Busy)));
    // The admitted connection is unaffected.
    let last = blocks.len() as u64 - 1;
    assert_eq!(client.decode_block(last).unwrap(), blocks[last as usize]);

    // One admitted flooder hangs up: its slot frees for a newcomer.
    drop(admitted.pop());
    let start = Instant::now();
    while server.live_connections() >= MAX_CONNECTIONS {
        assert!(start.elapsed() < Duration::from_secs(10), "slot never freed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut newcomer = Client::new(dial().unwrap());
    assert_eq!(newcomer.decode_block(1).unwrap(), blocks[1]);

    done.store(true, Ordering::SeqCst);
    monitor.join().unwrap();
    let peak = peak.load(Ordering::SeqCst);
    assert_eq!(peak, MAX_CONNECTIONS, "live connections exceeded the cap");
    client.shutdown().unwrap();
}

// Scenario 10: a run corrupted on disk *after* the daemon verified and
// cached it.  The daemon keeps serving the bytes that matched the
// record when it loaded them, and `verify` reports the run on disk.
#[test]
fn chunk_corrupted_after_caching_keeps_serving_the_verified_bytes() {
    let dir = temp_dir("corrupt-after-cache");
    let blocks = publish_two_chunks(&dir);
    let server = server_for(&dir);
    let mut client = connect(&server);
    // Warm run 0 (blocks 0 and 1) through block 0.
    assert_eq!(client.decode_block(0).unwrap(), blocks[0]);
    corrupt_chunk(&dir, 0);
    // Block 1 was never decoded, so both answers slice the verified
    // copy of run 0, on this connection and on a fresh one.
    assert_eq!(client.decode_block(1).unwrap(), blocks[1]);
    assert_eq!(client.get_block(1).unwrap(), (blocks[1].clone(), blocks[1].len()));
    let mut fresh = connect(&server);
    assert_eq!(fresh.get_block(0).unwrap(), (blocks[0].clone(), blocks[0].len()));
    let stats = fresh.stats().unwrap();
    assert!(stats.contains("\"chunk_loads\":1,"), "{stats}");
    let err = verify_dir(&dir).unwrap_err();
    assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("image.cce run 0:"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// Scenario 11: a decode that panics.  The connection thread catches it,
// its request answers a typed error, and the daemon keeps decoding other
// blocks, for the same connection and for a fresh one.
#[test]
fn a_panicking_decode_answers_a_typed_error_and_the_shard_serves_on() {
    let dir = temp_dir("panicking-job");
    let blocks = publish_two_chunks(&dir);
    // One LRU stripe, so every block shares the stripe the panic left.
    let config = ServeConfig { workers: 1, ..ServeConfig::default() };
    let codec = Box::new(PanicsOn { poison: blocks[2][0] });
    let server = Server::new(open_blocks(&dir, &blocks).unwrap(), codec, config);
    let mut client = connect(&server);
    let err = client.decode_block(2).unwrap_err();
    assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("worker failed"), "{err}");
    assert_eq!(client.decode_block(3).unwrap(), blocks[3]);
    let mut fresh = connect(&server);
    assert_eq!(fresh.decode_block(0).unwrap(), blocks[0]);
    // The panicking block still answers an error, not a dead daemon.
    assert!(matches!(fresh.decode_block(2), Err(ServeError::Corrupt { .. })));
    std::fs::remove_dir_all(&dir).unwrap();
}
