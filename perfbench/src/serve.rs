//! `serve-cold` and `serve-warm`: the block-serving daemon on a Unix
//! socket under pipelined load.
//!
//! The input is a program compressed into a v2 container as `cce
//! compress` writes it, built before the run.  Set-up is what `cce
//! publish`, `cce verify` and `cce serve` do: publish the container into
//! a content-addressed artifact directory, verify the directory, open it
//! and start the daemon on a Unix socket; the clients then connect.
//!
//! Load is a closed loop of [`CONNECTIONS`] connections, each keeping
//! [`WINDOW`] `decode-block` requests in flight (it sends the next one as
//! soon as a reply arrives), so each connection's request queue holds
//! several requests and the daemon's worker shards are contended.  An
//! operation is one request, timed from its send to its reply, and the
//! reply must equal the program's text for that block.  A step is
//! [`BATCH`] requests on every connection.
//!
//! The two workloads differ only in which blocks are asked for:
//! `serve-cold` spreads requests uniformly over every block, so nearly
//! all take the chunk read + SHA-256 + decode path; `serve-warm` spreads
//! them over a seeded run of as many consecutive blocks as the
//! decoded-block cache holds, so after warm-up every request is a cache
//! hit.

use crate::design::{mips_text, reference_slowdown, BLOCK};
use crate::trace::Tracer;
use crate::{obs_value, out_dir, per, Design, Inputs, Layers, Tally, Workload};
use cce_core::artifact::{open_with_codec, publish_container};
use cce_core::container::ContainerV2Reader;
use cce_core::elf::{Class, ElfImage, ElfStream, Endianness, Machine};
use cce_core::isa::Isa;
use cce_core::serve::proto::{read_frame, Request, Status, MAX_RESPONSE_PAYLOAD};
use cce_core::serve::{verify_dir, ServeConfig, Server, DEFAULT_CHUNK_PAYLOAD};
use cce_core::{streaming, Algorithm};
use std::collections::VecDeque;
use std::io::{Cursor, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Integer profile with about 176 KiB of text (5.6 k blocks).
const PROFILE: &str = "vortex";
const SCALE: f64 = 1.0;
const ALGORITHM: Algorithm = Algorithm::Samc;
/// Daemon worker shards.
const WORKERS: usize = 2;
/// Decoded-block cache capacity in blocks, the `cce serve` default.
const CACHE_BLOCKS: usize = 256;
/// Client connections.
const CONNECTIONS: usize = 4;
/// Requests each connection keeps in flight.
const WINDOW: usize = 4;
/// Requests per connection in one step.
const BATCH: usize = 512;
/// Length of each connection's precomputed request schedule.
const SCHEDULE: usize = 1 << 14;
/// Longest wait for the daemon's socket to accept connections.
const START_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy)]
enum Traffic {
    /// Uniform over every block.
    Cold,
    /// Uniform over [`CACHE_BLOCKS`] consecutive blocks.
    Warm,
}

struct Served {
    text: Vec<u8>,
    container: Vec<u8>,
    seed: u64,
    /// Block indices each connection requests, in order.
    schedules: Vec<Vec<u64>>,
}

struct Serve<'a> {
    inputs: &'a Served,
    dir: PathBuf,
    socket: PathBuf,
    server: Option<Server>,
    daemon: Option<JoinHandle<std::io::Result<()>>>,
    connections: Vec<UnixStream>,
}

/// SplitMix64: the schedules' own deterministic generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn prepare_cold(seed: u64) -> Result<Box<dyn Inputs>, String> {
    prepare(seed, Traffic::Cold)
}

pub fn prepare_warm(seed: u64) -> Result<Box<dyn Inputs>, String> {
    prepare(seed, Traffic::Warm)
}

fn prepare(seed: u64, traffic: Traffic) -> Result<Box<dyn Inputs>, String> {
    let text = mips_text(PROFILE, SCALE, seed);
    let elf = ElfImage::new_executable(Machine::Mips, Class::Elf32, Endianness::Big, text.clone())
        .to_bytes();
    let handle = ALGORITHM.build(Isa::Mips, BLOCK).train(&text).map_err(|e| e.to_string())?;
    let codec = handle.as_block().ok_or("SAMC built a file codec")?;
    let mut container = Vec::new();
    let mut stream = ElfStream::open(Cursor::new(&elf[..])).map_err(|e| e.to_string())?;
    streaming::compress_elf(&mut stream, ALGORITHM, codec, &mut container, 1)
        .map_err(|e| e.to_string())?;

    let blocks = text.len().div_ceil(BLOCK) as u64;
    let mut state = seed;
    let (first, span) = match traffic {
        Traffic::Cold => (0, blocks),
        Traffic::Warm => {
            let span = CACHE_BLOCKS as u64;
            (splitmix(&mut state) % (blocks - span + 1), span)
        }
    };
    let schedules = (0..CONNECTIONS)
        .map(|_| (0..SCHEDULE).map(|_| first + splitmix(&mut state) % span).collect())
        .collect();
    Ok(Box::new(Served { text, container, seed, schedules }))
}

/// `path` relative to the working directory when it lies inside it:
/// a Unix socket path is limited to about 100 bytes.
fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

impl Inputs for Served {
    fn setup(&self, tracer: &Tracer) -> Result<Box<dyn Workload + '_>, String> {
        // Set-ups overlap (a run builds more than one), so each gets its
        // own directory and socket.
        static SETUPS: AtomicU64 = AtomicU64::new(0);
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let name = format!("serve-{}-{n}", std::process::id());
        let out = out_dir();
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        // Made first, so that dropping it cleans up after a failed step.
        let mut serve = Serve {
            inputs: self,
            dir: out.join(&name),
            socket: short_path(&out.join(format!("{name}.sock"))),
            server: None,
            daemon: None,
            connections: Vec::with_capacity(CONNECTIONS),
        };
        for stale in [&serve.dir, &serve.socket] {
            if stale.is_dir() {
                std::fs::remove_dir_all(stale).map_err(|e| format!("{}: {e}", stale.display()))?;
            } else if stale.exists() {
                std::fs::remove_file(stale).map_err(|e| format!("{}: {e}", stale.display()))?;
            }
        }
        {
            let _span = tracer.span("serve.publish");
            let mut reader = ContainerV2Reader::open(Cursor::new(&self.container[..]))
                .map_err(|e| e.to_string())?;
            publish_container(&mut reader, &serve.dir, DEFAULT_CHUNK_PAYLOAD)
                .map_err(|e| e.to_string())?;
        }
        {
            let _span = tracer.span("serve.verify_dir");
            verify_dir(&serve.dir).map_err(|e| e.to_string())?;
        }
        let _span = tracer.span("serve.start");
        let (artifact, codec) = open_with_codec(&serve.dir).map_err(|e| e.to_string())?;
        let config =
            ServeConfig { workers: WORKERS, cache_blocks: CACHE_BLOCKS, ..ServeConfig::default() };
        let server = Server::new(artifact, codec, config);
        let daemon = server.clone();
        let socket = serve.socket.clone();
        serve.server = Some(server);
        serve.daemon = Some(std::thread::spawn(move || daemon.serve_unix(&socket)));
        let start = Instant::now();
        while serve.connections.len() < CONNECTIONS {
            match UnixStream::connect(&serve.socket) {
                Ok(stream) => serve.connections.push(stream),
                Err(e) => {
                    if serve.daemon.as_ref().is_some_and(|d| d.is_finished())
                        || start.elapsed() > START_TIMEOUT
                    {
                        return Err(format!("{}: {e}", serve.socket.display()));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        Ok(Box::new(serve))
    }
}

/// Runs `BATCH` requests of step `step` on one connection, keeping
/// [`WINDOW`] in flight, and returns each request's outcome.
fn run_connection(
    stream: &mut UnixStream,
    schedule: &[u64],
    step: u64,
    text: &[u8],
) -> Vec<Result<Duration, String>> {
    let mut outcomes = Vec::with_capacity(BATCH);
    let mut in_flight = VecDeque::with_capacity(WINDOW);
    let first = (step as usize).wrapping_mul(BATCH);
    let mut sent = 0;
    while outcomes.len() < BATCH {
        while sent < BATCH && in_flight.len() < WINDOW {
            let block = schedule[first.wrapping_add(sent) % schedule.len()];
            if let Err(e) = stream.write_all(&Request::DecodeBlock(block).encode()) {
                outcomes.resize_with(BATCH, || Err(format!("send: {e}")));
                return outcomes;
            }
            in_flight.push_back((block, Instant::now()));
            sent += 1;
        }
        let (block, sent_at) = in_flight.pop_front().expect("a request is in flight");
        let reply = read_frame(stream, MAX_RESPONSE_PAYLOAD);
        let elapsed = sent_at.elapsed();
        let frame = match reply {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                outcomes.resize_with(BATCH, || Err("daemon closed the connection".into()));
                return outcomes;
            }
            Err(e) => {
                outcomes.resize_with(BATCH, || Err(format!("receive: {e}")));
                return outcomes;
            }
        };
        let from = block as usize * BLOCK;
        let to = (from + BLOCK).min(text.len());
        outcomes.push(if frame.opcode != Status::Ok.code() {
            Err(format!("block {block}: status 0x{:02x}", frame.opcode))
        } else if frame.payload != text[from..to] {
            Err(format!("block {block}: reply differs from the program text"))
        } else {
            Ok(elapsed)
        });
    }
    outcomes
}

impl Workload for Serve<'_> {
    fn step(&mut self, i: u64, tracer: &Tracer, tally: &mut Tally) {
        let _span = tracer.span("serve.batch");
        let inputs = self.inputs;
        let outcomes: Vec<Vec<Result<Duration, String>>> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .connections
                .iter_mut()
                .zip(&inputs.schedules)
                .map(|(stream, schedule)| {
                    scope.spawn(move || run_connection(stream, schedule, i, &inputs.text))
                })
                .collect();
            clients
                .into_iter()
                .map(|client| {
                    client.join().unwrap_or_else(|_| vec![Err("client thread panicked".into())])
                })
                .collect()
        });
        for outcome in outcomes.into_iter().flatten() {
            tally.record(outcome);
        }
    }

    fn design(&mut self) -> Result<Design, String> {
        let inputs = self.inputs;
        let mut reader = ContainerV2Reader::open(Cursor::new(&inputs.container[..]))
            .map_err(|e| e.to_string())?;
        let mut sizes = Vec::with_capacity(reader.block_count());
        for index in 0..reader.block_count() {
            sizes.push(reader.read_block(index).map_err(|e| e.to_string())?.0.len());
        }
        let ratio = reader.summary().compressed_len() as f64 / inputs.text.len() as f64;
        Ok(Design { ratio, slowdown: reference_slowdown(&sizes, inputs.text.len(), inputs.seed) })
    }

    fn layers(&self, tracer: &Tracer, tally: &Tally, out: &mut Layers) {
        let ms_each = |name| {
            let t = tracer.total(name);
            per(t.total_ns as f64, t.count as f64) / 1e6
        };
        out.insert("publish_ms", ms_each("serve.publish"));
        out.insert("verify_dir_ms", ms_each("serve.verify_dir"));
        let rtt: f64 = tally.latencies.iter().sum();
        out.insert("serve_rtt_us", per(rtt, tally.latencies.len() as f64) * 1e6);
        let snapshot = cce_core::obs::snapshot();
        let (served, micros) = obs_value(&snapshot, "serve.latency_micros");
        out.insert("serve_service_us", per(micros as f64, served as f64));
        let hits = obs_value(&snapshot, "serve.cache.hits").0 as f64;
        let misses = obs_value(&snapshot, "serve.cache.misses").0 as f64;
        out.insert("serve_cache_hit_ratio", per(hits, hits + misses));
    }
}

impl Drop for Serve<'_> {
    fn drop(&mut self) {
        // Closing the connections ends their handlers; the daemon's
        // accept loop sees the shutdown flag within one poll.
        self.connections.clear();
        if let Some(server) = self.server.take() {
            server.request_shutdown();
        }
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_file(&self.socket);
    }
}
