//! The long-lived block-serving daemon.
//!
//! One [`Server`] wraps an opened [`Artifact`] plus its codec and
//! answers protocol requests over any byte stream: Unix sockets, TCP,
//! or the in-memory [`duplex`](crate::fault::duplex) pipe the tests
//! drive.  The resilience contract:
//!
//! * every failure is a *per-request* typed error response — corrupt
//!   chunks, bad frames, timeouts, and codec errors never kill the
//!   daemon or the connection (only an unrecoverable stream desync
//!   closes the connection);
//! * one thread per connection reads a request, answers it, then
//!   reads the next, holding at most [`READ_BUFFER_BYTES`] of unread
//!   requests: a client that pipelines faster is held back by its own
//!   transport buffer; beyond [`MAX_CONNECTIONS`] a connection gets
//!   `Busy`;
//! * decoded-block LRU hits are answered on that thread; misses and
//!   raw reads run on a [`ShardPool`] keyed by block index, so the
//!   per-shard LRU needs no cross-shard coordination;
//! * a miss reads its chunk through the artifact's verified-chunk
//!   cache, so each chunk is read and SHA-256-checked once per daemon
//!   (see [`store`](crate::store) for the integrity contract);
//! * a job that panics answers its request with a typed error and
//!   leaves its shard serving;
//! * every request observes `request_timeout`; a stuck decode answers
//!   `Timeout` while the daemon lives on.

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::obs;
use crate::proto::{read_frame, write_frame, Request, Status, MAX_REQUEST_PAYLOAD};
use crate::store::Artifact;
use cce_codec::{BlockCodec, ShardPool};
use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Each connection's read buffer: the most request bytes taken off a
/// connection ahead of its answers (30 `decode-block` frames).
pub const READ_BUFFER_BYTES: usize = 512;

/// Bound on each worker shard's queue of block jobs; a connection whose
/// job finds the queue full waits for room.
pub const SHARD_QUEUE_CAPACITY: usize = 32;

/// Connections served at once by [`Server::serve_unix`] and
/// [`Server::serve_tcp`]; each holds one thread.
pub const MAX_CONNECTIONS: usize = 64;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards for block reads and decodes.
    pub workers: usize,
    /// Decoded-block LRU capacity, in blocks, across all shards.
    pub cache_blocks: usize,
    /// Deadline for a single request's block work.
    pub request_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: cce_codec::worker_count(),
            cache_blocks: 256,
            request_timeout: Duration::from_secs(5),
        }
    }
}

/// Always-on request accounting (the `stats` response), independent of
/// the compile-time `obs` feature.  The verified-chunk counters in that
/// response come from the [`Artifact`], which counts every chunk read,
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

struct Shared {
    artifact: Artifact,
    codec: Box<dyn BlockCodec>,
    config: ServeConfig,
    pool: ShardPool,
    caches: Vec<Mutex<LruCache<Vec<u8>>>>,
    stats: Stats,
    shutdown: AtomicBool,
    /// Connection threads the accept loops have running, each holding
    /// one [`Slot`].
    live: AtomicUsize,
}

/// The daemon: owns the artifact, codec, worker pool, and caches.
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
        let shards = config.workers.clamp(1, 1024);
        let per_shard = (config.cache_blocks / shards).max(1);
        let caches = (0..shards)
            .map(|_| {
                Mutex::new(LruCache::new(if config.cache_blocks == 0 { 0 } else { per_shard }))
            })
            .collect();
        let pool = ShardPool::new(shards, SHARD_QUEUE_CAPACITY);
        Self {
            shared: Arc::new(Shared {
                artifact,
                codec,
                config,
                pool,
                caches,
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
    pub fn stats_json(&self) -> String {
        let s = &self.shared.stats;
        let chunks = self.shared.artifact.chunk_stats();
        format!(
            "{{\"requests\":{},\"errors\":{},\"connections\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"chunk_loads\":{},\"chunk_hits\":{},\"chunk_bytes\":{},\
             \"blocks\":{},\"workers\":{}}}\n",
            s.requests.load(Ordering::Relaxed),
            s.errors.load(Ordering::Relaxed),
            s.connections.load(Ordering::Relaxed),
            s.cache_hits.load(Ordering::Relaxed),
            s.cache_misses.load(Ordering::Relaxed),
            chunks.loads,
            chunks.hits,
            chunks.resident_bytes,
            self.shared.artifact.block_count(),
            self.shared.pool.shards(),
        )
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
            Request::GetManifest => Ok(self.shared.artifact.manifest_bytes().to_vec()),
            Request::Stats => Ok(self.stats_json().into_bytes()),
            Request::Shutdown => {
                self.request_shutdown();
                Ok(Vec::new())
            }
            Request::GetBlock(n) => {
                let block = self.block_index(n)?;
                let shared = self.shared.clone();
                let (data, ulen) =
                    self.with_deadline(block, move || shared.artifact.read_block(block))??;
                let mut payload = Vec::with_capacity(4 + data.len());
                payload.extend_from_slice(&(ulen as u32).to_be_bytes());
                payload.extend_from_slice(&data);
                Ok(payload)
            }
            Request::DecodeBlock(n) => {
                let block = self.block_index(n)?;
                if let Some(bytes) = cache_hit(&self.shared, block) {
                    return Ok(bytes);
                }
                let shared = self.shared.clone();
                self.with_deadline(block, move || decode_cached(&shared, block))?
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

    /// Runs `job` on the block's shard, waiting at most the request
    /// timeout for its answer.  A late answer is dropped on the floor
    /// (the rendezvous channel is gone), not delivered to a later
    /// request.
    fn with_deadline<T: Send + 'static>(
        &self,
        block: usize,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, ServeError> {
        let (tx, rx) = sync_channel::<T>(1);
        self.shared.pool.submit(
            block,
            Box::new(move || {
                let _ = tx.send(job());
            }),
        );
        match rx.recv_timeout(self.shared.config.request_timeout) {
            Ok(result) => Ok(result),
            Err(RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                // The worker dropped the sender without answering —
                // only possible if the job panicked; the pool caught
                // the panic and the shard serves on, so surface it as
                // a typed error, never as a dead daemon.
                Err(ServeError::corrupt(format!("block {block}"), "worker failed"))
            }
        }
    }
}

impl Shared {
    /// The decoded-block LRU of `block`'s shard, locked.
    fn cache(&self, block: usize) -> MutexGuard<'_, LruCache<Vec<u8>>> {
        self.caches[block % self.caches.len()].lock().expect("cache lock")
    }
}

/// The decoded bytes of `block` if its shard's LRU holds them, counted
/// as one hit.  A miss counts nothing: whoever decodes counts it.
fn cache_hit(shared: &Shared, block: usize) -> Option<Vec<u8>> {
    let bytes = shared.cache(block).get(block)?;
    shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
    obs::SERVE_CACHE_HITS.incr();
    Some(bytes)
}

/// Shard-cached decode: LRU hit or read + decompress + insert.  The
/// cache is checked again here because a decode queued behind this
/// one's may have inserted the block since the connection looked.
fn decode_cached(shared: &Shared, block: usize) -> Result<Vec<u8>, ServeError> {
    if let Some(bytes) = cache_hit(shared, block) {
        return Ok(bytes);
    }
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
    shared.cache(block).insert(block, decoded.clone(), 1);
    Ok(decoded)
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
    use crate::publish::{ArtifactMeta, Publisher};
    use std::fs;
    use std::path::{Path, PathBuf};

    /// A codec whose "compression" is identity, with optional delay.
    struct SlowIdentity {
        delay: Duration,
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
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
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

    fn publish_identity(dir: &Path, blocks: usize) -> Vec<Vec<u8>> {
        let meta = ArtifactMeta {
            algorithm: "samc".into(),
            isa: "mips".into(),
            class: 0,
            endianness: 1,
            entry: 0,
            block_size: 64,
            model_bytes: 0,
        };
        let mut p = Publisher::create(dir, meta, b"", 128).unwrap();
        let data: Vec<Vec<u8>> =
            (0..blocks).map(|i| vec![(i * 17 % 251) as u8; 40 + i % 20]).collect();
        for b in &data {
            p.push_block(b, b.len()).unwrap();
        }
        p.finish().unwrap();
        data
    }

    fn server_for(dir: &Path, delay: Duration, config: ServeConfig) -> Server {
        let artifact = Artifact::open(dir).unwrap();
        Server::new(artifact, Box::new(SlowIdentity { delay }), config)
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
        let blocks = publish_identity(&dir, 7);
        let server = server_for(&dir, Duration::ZERO, ServeConfig::default());
        let mut client = connect(&server);
        let manifest = client.get_manifest().unwrap();
        assert!(manifest.starts_with(b"{\"schema\":\"cce-artifact/1\""));
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
        let blocks = publish_identity(&dir, 3);
        let server = server_for(&dir, Duration::ZERO, ServeConfig::default());
        let mut client = connect(&server);
        assert!(matches!(client.get_block(99), Err(ServeError::NotFound(_))));
        // Same connection still answers afterwards.
        assert_eq!(client.decode_block(0).unwrap(), blocks[0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slow_decode_times_out_but_the_daemon_stays_up() {
        let dir = temp_dir("timeout");
        let blocks = publish_identity(&dir, 3);
        let config = ServeConfig {
            // Pin the shard count so block 1's shard is not the one
            // the stuck decode occupies.
            workers: 4,
            request_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let server = server_for(&dir, Duration::from_millis(400), config);
        let mut client = connect(&server);
        assert!(matches!(client.decode_block(0), Err(ServeError::Timeout)));
        // Raw block reads skip the codec (and block 1 lives on an idle
        // shard), so they still answer.
        let (data, _) = client.get_block(1).unwrap();
        assert_eq!(data, blocks[1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_cache_hits_on_repeat_requests() {
        let dir = temp_dir("cache");
        publish_identity(&dir, 4);
        let server = server_for(&dir, Duration::ZERO, ServeConfig::default());
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
        let blocks = publish_identity(&dir, 4);
        let server = server_for(&dir, Duration::ZERO, ServeConfig::default());
        let manifest = server.shared.artifact.manifest();
        assert_eq!(manifest.chunk_for_block(0), manifest.chunk_for_block(1));
        let mut client = connect(&server);
        assert_eq!(client.decode_block(0).unwrap(), blocks[0]);
        assert_eq!(client.decode_block(1).unwrap(), blocks[1]);
        let stats = client.stats().unwrap();
        assert!(stats.contains("\"chunk_loads\":1,\"chunk_hits\":1,"), "{stats}");
        let resident = manifest.chunks[0].compressed_len;
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
        let dir = temp_dir("inline-hit");
        let blocks = publish_identity(&dir, 3);
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let server = server_for(&dir, Duration::from_millis(400), config);
        let mut first = connect(&server);
        assert_eq!(first.decode_block(0).unwrap(), blocks[0]);
        // Block 1 misses and holds the only shard for 400 ms.
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
        let blocks = publish_identity(&dir, 2);
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let server = server_for(&dir, Duration::from_millis(200), config);
        let mut first = connect(&server);
        let racing = std::thread::spawn(move || first.decode_block(0).unwrap());
        wait_for_misses(&server, 1);
        // Block 0 is still decoding, so this request misses on its
        // connection and queues on the shard behind that decode.
        let mut second = connect(&server);
        assert_eq!(second.decode_block(0).unwrap(), blocks[0]);
        assert_eq!(racing.join().unwrap(), blocks[0]);
        let hits = server.shared.stats.cache_hits.load(Ordering::Relaxed);
        let misses = server.shared.stats.cache_misses.load(Ordering::Relaxed);
        assert_eq!((hits, misses), (1, 1), "one decode, and each request counted once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_request_is_acknowledged_and_sets_the_flag() {
        let dir = temp_dir("shutdown");
        publish_identity(&dir, 2);
        let server = server_for(&dir, Duration::ZERO, ServeConfig::default());
        let mut client = connect(&server);
        assert!(!server.shutdown_requested());
        client.shutdown().unwrap();
        assert!(server.shutdown_requested());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_over_a_unix_socket() {
        let dir = temp_dir("unix");
        let blocks = publish_identity(&dir, 5);
        let server = server_for(&dir, Duration::ZERO, ServeConfig::default());
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
