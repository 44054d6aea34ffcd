//! The long-lived block-serving daemon.
//!
//! One [`Server`] wraps an opened [`Artifact`] plus its codec and
//! answers protocol requests over any byte stream: Unix sockets, TCP,
//! or the in-memory [`duplex`](crate::fault::duplex) pipe the tests
//! drive.  The resilience contract:
//!
//! * every failure is a *per-request* typed error response — corrupt
//!   runs, bad frames, and codec errors never kill the daemon or the
//!   connection (only an unrecoverable stream desync closes the
//!   connection);
//! * one thread per connection reads a request, answers it, then
//!   reads the next, holding at most [`READ_BUFFER_BYTES`] of unread
//!   requests: a client that pipelines faster is held back by its own
//!   transport buffer; beyond [`MAX_CONNECTIONS`] a connection gets
//!   `Busy`;
//! * every request is answered on its connection's thread, hit or
//!   miss, so at most [`MAX_CONNECTIONS`] decodes run at once and a
//!   slow decode delays only the connection that asked for it;
//! * the decoded-block LRU is lock-striped by block index, and each
//!   stripe marks the blocks being decoded, so concurrent misses on one
//!   block decode it once (single flight);
//! * a miss reads its run through the artifact's verified-chunk
//!   cache, so each run is read and SHA-256-checked once per daemon
//!   (see [`store`](crate::store) for the integrity contract);
//! * a decode or read that panics is caught on the connection thread
//!   and answers its request with a typed error.
//!
//! There is no per-request deadline: a thread cannot be pre-empted, and
//! every shipped codec's block decode is bounded.

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::obs;
use crate::proto::{read_frame, write_frame, Request, Status, MAX_REQUEST_PAYLOAD};
use crate::store::Artifact;
use cce_codec::BlockCodec;
use cce_obs::JsonWriter;
use std::collections::HashSet;
use std::io::{BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Each connection's read buffer: the most request bytes taken off a
/// connection ahead of its answers (30 `decode-block` frames).
pub const READ_BUFFER_BYTES: usize = 512;

/// Connections served at once by [`Server::serve_unix`] and
/// [`Server::serve_tcp`]; each holds one thread, which is also the
/// bound on decodes running at once.
pub const MAX_CONNECTIONS: usize = 64;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Lock stripes of the decoded-block LRU: `min(workers,
    /// cache_blocks)`, at least 1 and at most 1024; block `b` lives in
    /// stripe `b % stripes`.  The name is kept for existing callers.
    pub workers: usize,
    /// Decoded-block LRU capacity, in blocks, summed over all stripes
    /// (0 disables caching).
    pub cache_blocks: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { workers: cce_codec::worker_count(), cache_blocks: 256 }
    }
}

/// Always-on request accounting (the `stats` response), independent of
/// the compile-time `obs` feature.  The verified-chunk counters in that
/// response come from the [`Artifact`], which counts every run read,
/// `get-block` and `decode-block` alike.
#[derive(Debug, Default)]
pub struct Stats {
    /// Requests answered (including error responses).
    pub requests: AtomicU64,
    /// Error responses among them.
    pub errors: AtomicU64,
    /// Connections served.
    pub connections: AtomicU64,
    /// Decoded-block cache hits.
    pub cache_hits: AtomicU64,
    /// Decoded-block cache misses.
    pub cache_misses: AtomicU64,
}

/// One lock stripe of the decoded-block LRU.
struct Stripe {
    state: Mutex<StripeState>,
    /// Signalled whenever a block leaves `in_flight`.
    settled: Condvar,
}

struct StripeState {
    lru: LruCache<Vec<u8>>,
    /// Blocks a connection thread is decoding right now.
    in_flight: HashSet<usize>,
}

impl Stripe {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(StripeState {
                lru: LruCache::new(capacity),
                in_flight: HashSet::new(),
            }),
            settled: Condvar::new(),
        }
    }

    /// The stripe's state, locked.  No code runs under this lock that
    /// can panic, so a poisoned lock still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, StripeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The per-stripe capacities of a `cache_blocks` LRU over `workers`
/// stripes: `min(workers, cache_blocks)` stripes (at least 1, at most
/// 1024), the first `cache_blocks % stripes` holding one extra block,
/// so they sum to exactly `cache_blocks`.
fn stripe_capacities(cache_blocks: usize, workers: usize) -> Vec<usize> {
    let stripes = workers.min(cache_blocks).clamp(1, 1024);
    (0..stripes).map(|i| cache_blocks / stripes + usize::from(i < cache_blocks % stripes)).collect()
}

struct Shared {
    artifact: Artifact,
    codec: Box<dyn BlockCodec>,
    stripes: Vec<Stripe>,
    stats: Stats,
    shutdown: AtomicBool,
    /// Connection threads the accept loops have running, each holding
    /// one [`Slot`].
    live: AtomicUsize,
}

/// The daemon: owns the artifact, codec, and caches.
///
/// Cloning is cheap (an [`Arc`] bump); clones share all state, so a
/// listener thread and a control thread can both hold the server.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Builds a server over `artifact` with its trained `codec`.
    pub fn new(artifact: Artifact, codec: Box<dyn BlockCodec>, config: ServeConfig) -> Self {
        let stripes = stripe_capacities(config.cache_blocks, config.workers)
            .into_iter()
            .map(Stripe::new)
            .collect();
        Self {
            shared: Arc::new(Shared {
                artifact,
                codec,
                stripes,
                stats: Stats::default(),
                shutdown: AtomicBool::new(false),
                live: AtomicUsize::new(0),
            }),
        }
    }

    /// Whether a `shutdown` request has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (what the `shutdown` opcode does).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Connections the accept loops are serving right now (never more
    /// than [`MAX_CONNECTIONS`]).
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// The always-on stats as a JSON object (the `stats` payload).
    /// `"workers"` is the decoded-block LRU's stripe count.
    pub fn stats_json(&self) -> String {
        let s = &self.shared.stats;
        let chunks = self.shared.artifact.chunk_stats();
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("requests").int(s.requests.load(Ordering::Relaxed));
            w.key("errors").int(s.errors.load(Ordering::Relaxed));
            w.key("connections").int(s.connections.load(Ordering::Relaxed));
            w.key("cache_hits").int(s.cache_hits.load(Ordering::Relaxed));
            w.key("cache_misses").int(s.cache_misses.load(Ordering::Relaxed));
            w.key("chunk_loads").int(chunks.loads);
            w.key("chunk_hits").int(chunks.hits);
            w.key("chunk_bytes").int(chunks.resident_bytes);
            w.key("blocks").int(self.shared.artifact.block_count());
            w.key("workers").int(self.shared.stripes.len());
        });
        let mut json = w.finish();
        json.push('\n');
        json
    }

    /// Serves one connection on the calling thread: reads a request
    /// through a [`READ_BUFFER_BYTES`] buffer, answers it on `writer`,
    /// then reads the next, so replies leave in request order.
    ///
    /// Returns when the peer hangs up, the stream desyncs, or a
    /// `shutdown` request is answered.  All failures are contained:
    /// this method never panics and never poisons shared state.
    pub fn handle_connection<R: Read, W: Write>(&self, reader: R, mut writer: W) {
        let shared = &self.shared;
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        obs::SERVE_CONNECTIONS.incr();
        let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, reader);
        loop {
            let frame = read_frame(&mut reader, MAX_REQUEST_PAYLOAD);
            let start = Instant::now();
            let (stop, outcome) = match frame {
                Ok(None) => break,
                Ok(Some(frame)) => match Request::parse(&frame) {
                    Ok(req) => {
                        let result = self.process(req);
                        (matches!(req, Request::Shutdown) && result.is_ok(), result)
                    }
                    // Bad opcode or payload size: framing stayed in
                    // sync, so the connection carries on.
                    Err(e) => (false, Err(e)),
                },
                // Bad magic, oversized length, mid-frame EOF, or an
                // I/O error: answer best-effort, then close.
                Err(e) => (true, Err(e)),
            };
            let write_ok = self.respond(&mut writer, outcome);
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            obs::SERVE_LATENCY_MICROS.record(micros);
            if stop || !write_ok {
                break;
            }
        }
    }

    /// Counts and writes one response; returns whether the write
    /// succeeded.
    fn respond(&self, writer: &mut impl Write, outcome: Result<Vec<u8>, ServeError>) -> bool {
        let stats = &self.shared.stats;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        obs::SERVE_REQUESTS.incr();
        match outcome {
            Ok(payload) => write_frame(writer, Status::Ok.code(), &payload).is_ok(),
            Err(err) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                obs::SERVE_ERRORS.incr();
                let status = Status::for_error(&err);
                write_frame(writer, status.code(), err.to_string().as_bytes()).is_ok()
            }
        }
    }

    /// Answers one request, producing the `Ok` payload.
    fn process(&self, req: Request) -> Result<Vec<u8>, ServeError> {
        match req {
            Request::GetManifest => Ok(self.shared.artifact.info().to_vec()),
            Request::Stats => Ok(self.stats_json().into_bytes()),
            Request::Shutdown => {
                self.request_shutdown();
                Ok(Vec::new())
            }
            Request::GetBlock(n) => {
                let block = self.block_index(n)?;
                let (data, ulen) = contain_panic(block, || self.shared.artifact.read_block(block))?;
                let mut payload = Vec::with_capacity(4 + data.len());
                payload.extend_from_slice(&(ulen as u32).to_be_bytes());
                payload.extend_from_slice(&data);
                Ok(payload)
            }
            Request::DecodeBlock(n) => {
                let block = self.block_index(n)?;
                contain_panic(block, || decode_cached(&self.shared, block))
            }
        }
    }

    fn block_index(&self, n: u64) -> Result<usize, ServeError> {
        let count = self.shared.artifact.block_count() as u64;
        if n < count {
            Ok(n as usize)
        } else {
            Err(ServeError::NotFound(format!("block {n} (artifact has {count})")))
        }
    }
}

/// Runs `block`'s read or decode, turning a panic into a typed error
/// for its request: the connection and the daemon serve on.  Nothing
/// the work leaves behind is inconsistent: stripe locks are not held
/// across it, and the in-flight marker is cleared by a drop guard.
fn contain_panic<T>(
    block: usize,
    work: impl FnOnce() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    catch_unwind(AssertUnwindSafe(work))
        .unwrap_or_else(|_| Err(ServeError::corrupt(format!("block {block}"), "worker failed")))
}

/// Single-flight cached decode.  A resident block is one hit.  A block
/// another request is decoding makes this one wait and look again, so
/// it usually finds the block resident.  Otherwise this request marks
/// the block in flight, counts one miss, and reads and decodes it
/// outside the stripe lock.  Every `decode-block` counts once.
fn decode_cached(shared: &Shared, block: usize) -> Result<Vec<u8>, ServeError> {
    let stripe = &shared.stripes[block % shared.stripes.len()];
    let mut state = stripe.lock();
    loop {
        if let Some(bytes) = state.lru.get(block) {
            drop(state);
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            obs::SERVE_CACHE_HITS.incr();
            return Ok(bytes);
        }
        if state.in_flight.insert(block) {
            break;
        }
        state = stripe.settled.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
    drop(state);
    let _marker = InFlight { stripe, block };
    shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    obs::SERVE_CACHE_MISSES.incr();
    let (data, ulen) = shared.artifact.read_block(block)?;
    let decoded = shared.codec.decompress_block(&data, ulen)?;
    if decoded.len() != ulen {
        return Err(ServeError::corrupt(
            format!("block {block}"),
            format!("decoded {} bytes, index says {ulen}", decoded.len()),
        ));
    }
    stripe.lock().lru.insert(block, decoded.clone(), 1);
    Ok(decoded)
}

/// Clears a block's in-flight marker and wakes its waiters, however the
/// decode ends: success, error or unwind.
struct InFlight<'a> {
    stripe: &'a Stripe,
    block: usize,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.stripe.lock().in_flight.remove(&self.block);
        self.stripe.settled.notify_all();
    }
}

impl Server {
    /// Binds a Unix socket at `path` and serves until shutdown.
    ///
    /// Each accepted connection runs on its own thread; the accept
    /// loop polls the shutdown flag every ~15 ms.  The socket file is
    /// removed on exit.
    ///
    /// # Errors
    ///
    /// Binding or accepting (other than `WouldBlock`) failures.
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let result = self.accept_loop(
            || listener.accept().map(|(stream, _)| stream),
            std::os::unix::net::UnixStream::set_nonblocking,
        );
        let _ = std::fs::remove_file(path);
        result
    }

    /// Binds a TCP listener at `addr` (e.g. `127.0.0.1:0`) and serves
    /// until shutdown.  Returns the bound address via `on_bound`
    /// before accepting (so `:0` callers learn the port).
    ///
    /// # Errors
    ///
    /// Binding or accepting (other than `WouldBlock`) failures.
    pub fn serve_tcp(
        &self,
        addr: &str,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> std::io::Result<()> {
        let listener = std::net::TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        listener.set_nonblocking(true)?;
        self.accept_loop(
            || listener.accept().map(|(stream, _)| stream),
            std::net::TcpStream::set_nonblocking,
        )
    }

    /// Accepts from a nonblocking listener until shutdown, giving each
    /// connection its own thread while fewer than [`MAX_CONNECTIONS`]
    /// are live.  One over the cap is sent `Busy`, the reply its first
    /// request reads, and closed on this thread: waiting for that
    /// request could block on a silent peer, and a flood must not
    /// cost threads.  Connection threads are not joined, so shutdown
    /// never waits on an idle client.
    fn accept_loop<S>(
        &self,
        mut accept: impl FnMut() -> std::io::Result<S>,
        set_nonblocking: fn(&S, bool) -> std::io::Result<()>,
    ) -> std::io::Result<()>
    where
        S: Send + 'static,
        for<'a> &'a S: Read + Write,
    {
        while !self.shutdown_requested() {
            let stream = match accept() {
                Ok(stream) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                    continue;
                }
                Err(e) => return Err(e),
            };
            set_nonblocking(&stream, false)?;
            // Claiming the slot is one atomic step, so accept loops on
            // clones of this server never admit more than the cap.
            let Some(slot) = Slot::claim(self) else {
                self.respond(&mut &stream, Err(ServeError::Busy));
                continue;
            };
            std::thread::spawn(move || slot.0.handle_connection(&stream, &stream));
        }
        Ok(())
    }
}

/// One of the [`MAX_CONNECTIONS`] connection slots, held by a
/// connection thread and freed when dropped, however the thread ends.
struct Slot(Server);

impl Slot {
    fn claim(server: &Server) -> Option<Self> {
        let live = &server.shared.live;
        live.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < MAX_CONNECTIONS).then_some(n + 1)
        })
        .ok()?;
        Some(Self(server.clone()))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.shared.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::fault::duplex;
    use crate::store::{open_blocks, publish_blocks, TestImage};
    use std::fs;
    use std::path::{Path, PathBuf};

    /// A codec whose "compression" is identity, with optional delay.
    struct SlowIdentity {
        delay: Duration,
        /// Only blocks starting with this byte are slow (all when `None`).
        only: Option<u8>,
        /// Panic after the delay instead of answering.
        panic: bool,
    }

    impl BlockCodec for SlowIdentity {
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
            if self.only.is_none_or(|byte| block.first() == Some(&byte)) {
                std::thread::sleep(self.delay);
                assert!(!self.panic, "decode panicked");
            }
            Ok(block.to_vec())
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cce-serve-server-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Writes `blocks` identity blocks of 40..60 bytes in 128-byte
    /// runs, returning the blocks and the image.
    fn publish_identity(dir: &Path, blocks: usize) -> (Vec<Vec<u8>>, TestImage) {
        let data: Vec<Vec<u8>> =
            (0..blocks).map(|i| vec![(i * 17 % 251) as u8; 40 + i % 20]).collect();
        let image = publish_blocks(dir, &data, 128);
        (data, image)
    }

    fn server_for(dir: &Path, image: &TestImage, delay: Duration, config: ServeConfig) -> Server {
        let codec = SlowIdentity { delay, only: None, panic: false };
        Server::new(open_blocks(dir, image).unwrap(), Box::new(codec), config)
    }

    /// Spawns an in-memory connection to `server`, returning the
    /// client end.
    fn connect(server: &Server) -> Client<crate::fault::DuplexStream> {
        let (client_end, server_end) = duplex();
        let (reader, writer) = server_end.split();
        let server = server.clone();
        std::thread::spawn(move || server.handle_connection(reader, writer));
        Client::new(client_end)
    }

    #[test]
    fn serves_blocks_and_decodes_over_an_in_memory_connection() {
        let dir = temp_dir("basic");
        let (blocks, image) = publish_identity(&dir, 7);
        let server = server_for(&dir, &image, Duration::ZERO, ServeConfig::default());
        let mut client = connect(&server);
        assert_eq!(client.get_manifest().unwrap(), b"info");
        for (i, expect) in blocks.iter().enumerate() {
            let (data, ulen) = client.get_block(i as u64).unwrap();
            assert_eq!(&data, expect);
            assert_eq!(ulen, expect.len());
            assert_eq!(&client.decode_block(i as u64).unwrap(), expect);
        }
        let stats = client.stats().unwrap();
        assert!(stats.contains("\"requests\":"), "{stats}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_block_is_not_found_and_connection_survives() {
        let dir = temp_dir("notfound");
        let (blocks, image) = publish_identity(&dir, 3);
        let server = server_for(&dir, &image, Duration::ZERO, ServeConfig::default());
        let mut client = connect(&server);
        assert!(matches!(client.get_block(99), Err(ServeError::NotFound(_))));
        // Same connection still answers afterwards.
        assert_eq!(client.decode_block(0).unwrap(), blocks[0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_cache_hits_on_repeat_requests() {
        let dir = temp_dir("cache");
        let (_, image) = publish_identity(&dir, 4);
        let server = server_for(&dir, &image, Duration::ZERO, ServeConfig::default());
        let mut client = connect(&server);
        for _ in 0..3 {
            client.decode_block(2).unwrap();
        }
        let hits = server.shared.stats.cache_hits.load(Ordering::Relaxed);
        let misses = server.shared.stats.cache_misses.load(Ordering::Relaxed);
        assert_eq!(misses, 1, "first decode misses");
        assert_eq!(hits, 2, "repeats hit");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_decodes_in_one_chunk_load_it_once() {
        let dir = temp_dir("chunk-once");
        let (blocks, image) = publish_identity(&dir, 4);
        let server = server_for(&dir, &image, Duration::ZERO, ServeConfig::default());
        let artifact = &server.shared.artifact;
        assert_eq!(artifact.run_of(0), artifact.run_of(1));
        let mut client = connect(&server);
        assert_eq!(client.decode_block(0).unwrap(), blocks[0]);
        assert_eq!(client.decode_block(1).unwrap(), blocks[1]);
        let stats = client.stats().unwrap();
        assert!(stats.contains("\"chunk_loads\":1,\"chunk_hits\":1,"), "{stats}");
        let resident = artifact.runs()[0].len;
        assert!(stats.contains(&format!("\"chunk_bytes\":{resident},")), "{stats}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Waits until `misses` decodes have started.
    fn wait_for_misses(server: &Server, misses: u64) {
        let start = Instant::now();
        while server.shared.stats.cache_misses.load(Ordering::Relaxed) < misses {
            assert!(start.elapsed() < Duration::from_secs(10), "decode never started");
            std::thread::yield_now();
        }
    }

    #[test]
    fn cached_block_answers_while_the_only_shard_is_stuck() {
        // One LRU stripe, so the hit and the stuck miss share its lock.
        let dir = temp_dir("inline-hit");
        let (blocks, image) = publish_identity(&dir, 3);
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let server = server_for(&dir, &image, Duration::from_millis(400), config);
        let mut first = connect(&server);
        assert_eq!(first.decode_block(0).unwrap(), blocks[0]);
        // Block 1 misses and decodes for 400 ms on `first`'s thread.
        let stuck = std::thread::spawn(move || first.decode_block(1).unwrap());
        wait_for_misses(&server, 2);
        let mut second = connect(&server);
        let start = Instant::now();
        assert_eq!(second.decode_block(0).unwrap(), blocks[0]);
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(100), "cache hit waited {elapsed:?}");
        assert_eq!(stuck.join().unwrap(), blocks[1]);
        // Three decode-block requests answered, each counted once.
        let hits = server.shared.stats.cache_hits.load(Ordering::Relaxed);
        let misses = server.shared.stats.cache_misses.load(Ordering::Relaxed);
        assert_eq!((hits, misses), (1, 2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_miss_queued_behind_the_same_block_decodes_once() {
        let dir = temp_dir("racing-miss");
        let (blocks, image) = publish_identity(&dir, 2);
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let server = server_for(&dir, &image, Duration::from_millis(200), config);
        let mut first = connect(&server);
        let racing = std::thread::spawn(move || first.decode_block(0).unwrap());
        wait_for_misses(&server, 1);
        // Block 0 is still decoding, so this request waits on its
        // in-flight marker and then finds it cached.
        let mut second = connect(&server);
        assert_eq!(second.decode_block(0).unwrap(), blocks[0]);
        assert_eq!(racing.join().unwrap(), blocks[0]);
        let hits = server.shared.stats.cache_hits.load(Ordering::Relaxed);
        let misses = server.shared.stats.cache_misses.load(Ordering::Relaxed);
        assert_eq!((hits, misses), (1, 1), "one decode, and each request counted once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_slow_decode_delays_no_other_connection() {
        let dir = temp_dir("slow-decode");
        let (blocks, image) = publish_identity(&dir, 3);
        // One stripe for every block, and a 400 ms decode of block 0.
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let codec = SlowIdentity { delay: Duration::from_millis(400), only: Some(0), panic: false };
        let server = Server::new(open_blocks(&dir, &image).unwrap(), Box::new(codec), config);
        let mut second = connect(&server);
        assert_eq!(second.decode_block(2).unwrap(), blocks[2]);
        let mut first = connect(&server);
        let slow = std::thread::spawn(move || first.decode_block(0).unwrap());
        wait_for_misses(&server, 2);
        for block in [1, 2] {
            let start = Instant::now();
            assert_eq!(second.decode_block(block as u64).unwrap(), blocks[block]);
            let elapsed = start.elapsed();
            assert!(elapsed < Duration::from_millis(100), "block {block} waited {elapsed:?}");
        }
        assert_eq!(slow.join().unwrap(), blocks[0]);
        let hits = server.shared.stats.cache_hits.load(Ordering::Relaxed);
        let misses = server.shared.stats.cache_misses.load(Ordering::Relaxed);
        assert_eq!((hits, misses), (1, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panicking_decode_wakes_the_requests_waiting_on_it() {
        let dir = temp_dir("panic-wakes");
        let (blocks, image) = publish_identity(&dir, 2);
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let codec = SlowIdentity { delay: Duration::from_millis(200), only: Some(0), panic: true };
        let server = Server::new(open_blocks(&dir, &image).unwrap(), Box::new(codec), config);
        let (tx, rx) = std::sync::mpsc::channel();
        let request = |tx: std::sync::mpsc::Sender<_>| {
            let mut client = connect(&server);
            std::thread::spawn(move || tx.send(client.decode_block(0)).unwrap())
        };
        request(tx.clone());
        wait_for_misses(&server, 1);
        // Block 0 is in flight, so this request waits on its marker.
        request(tx);
        for _ in 0..2 {
            let answer = rx.recv_timeout(Duration::from_secs(10)).expect("a request hung");
            let err = answer.unwrap_err();
            assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("worker failed"), "{err}");
        }
        // The stripe still decodes, and nothing is left in flight.
        assert_eq!(connect(&server).decode_block(1).unwrap(), blocks[1]);
        assert!(server.shared.stripes[0].lock().in_flight.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stripe_capacities_sum_to_the_cache_size() {
        for cache_blocks in [0, 1, 2, 3, 4, 7, 8, 255, 256, 257, 5000] {
            for workers in [0, 1, 2, 3, 8, 64, 2000] {
                let caps = stripe_capacities(cache_blocks, workers);
                let case = format!("cache {cache_blocks}, workers {workers}: {caps:?}");
                assert_eq!(caps.len(), workers.min(cache_blocks).clamp(1, 1024), "{case}");
                assert_eq!(caps.iter().sum::<usize>(), cache_blocks, "{case}");
                let (min, max) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
                assert!(max - min <= 1, "{case}");
            }
        }
        assert_eq!(stripe_capacities(256, 2), [128, 128]);
        assert_eq!(stripe_capacities(1, 2), [1]);
        assert_eq!(stripe_capacities(4, 8), [1, 1, 1, 1]);
        assert_eq!(stripe_capacities(257, 2), [129, 128]);
    }

    #[test]
    fn stats_report_the_stripe_count_as_workers() {
        let dir = temp_dir("stripes");
        let (_, image) = publish_identity(&dir, 2);
        for (workers, cache_blocks, stripes) in [(8, 4, 4), (2, 256, 2), (3, 0, 1)] {
            let config = ServeConfig { workers, cache_blocks };
            let server = server_for(&dir, &image, Duration::ZERO, config);
            assert_eq!(server.shared.stripes.len(), stripes);
            let stats = server.stats_json();
            assert!(stats.contains(&format!("\"workers\":{stripes}}}")), "{stats}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_request_is_acknowledged_and_sets_the_flag() {
        let dir = temp_dir("shutdown");
        let (_, image) = publish_identity(&dir, 2);
        let server = server_for(&dir, &image, Duration::ZERO, ServeConfig::default());
        let mut client = connect(&server);
        assert!(!server.shutdown_requested());
        client.shutdown().unwrap();
        assert!(server.shutdown_requested());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_over_a_unix_socket() {
        let dir = temp_dir("unix");
        let (blocks, image) = publish_identity(&dir, 5);
        let server = server_for(&dir, &image, Duration::ZERO, ServeConfig::default());
        let socket =
            std::env::temp_dir().join(format!("cce-serve-test-{}.sock", std::process::id()));
        let _ = fs::remove_file(&socket);
        let daemon = {
            let server = server.clone();
            let socket = socket.clone();
            std::thread::spawn(move || server.serve_unix(&socket))
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut client = Client::connect_unix(&socket).unwrap();
        assert_eq!(client.decode_block(3).unwrap(), blocks[3]);
        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket file removed on shutdown");
        fs::remove_dir_all(&dir).unwrap();
    }
}
