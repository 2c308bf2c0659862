//! `serve-mixed`: an in-process `flexserve::serve` daemon with a fresh
//! cache directory on disk, driven as a closed loop by one client
//! connection per CPU. Each connection sends single requests from its
//! own seeded stream: most repeat a pool primed during set-up, the rest
//! are fresh computations, a few of them wafer-yield queries.

use crate::host::flush_filesystem;
use crate::inject::{pairs, target};
use crate::stats::Reservoir;
use crate::trace::Recorder;
use crate::{clock, scratch_dir, seconds_since, threads, PassMetrics, Profile, Timed};
use flexlink::crypto::sha256;
use flexserve::protocol::{
    decode_reply_core, decode_request, encode_core, encode_reply, encode_reply_core,
    encode_request, read_frame, write_frame,
};
use flexserve::{serve, Deadline, DiskCache, Engine, Reply, ReplyStatus, Request, ServeConfig};
use flexserve::{ServerHandle, StatusSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Requests per thousand that are fresh computations.
pub const FRESH_PER_MILLE: u32 = 2;
/// Fresh requests per thousand that are wafer-yield queries.
pub const YIELD_PER_MILLE_OF_FRESH: u32 = 25;
/// Test vectors per die of every yield query (`flexi client yield`'s
/// default).
const YIELD_CYCLES: u64 = 300;
/// The watchdog of every simulate request; fresh ones add a unique
/// offset so that their cache keys never repeat.
const SIM_BUDGET: u64 = 200_000;
/// Requests per client in one traced block.
const TRACED_BLOCK: usize = 1000;
/// Width of the windows the request rate is sampled over.
const WINDOW_S: f64 = 0.5;

fn features(dialect: &str) -> String {
    if matches!(dialect, "xacc" | "xls") {
        "revised".to_string()
    } else {
        String::new()
    }
}

fn yield_request(design: &str, seed: u64) -> Request {
    Request::Yield {
        design: design.to_string(),
        voltage_mv: 4_500,
        seed,
        cycles: YIELD_CYCLES,
        salvage: false,
    }
}

/// The primed pool: assemble, check, admit, vuln and simulate for every
/// kernel on all four dialects, plus a yield query per design.
pub fn pool(seed: u64) -> Vec<Request> {
    let mut pool = Vec::new();
    for (i, (dialect, kernel)) in pairs().into_iter().enumerate() {
        let source = kernel.source_for(target(dialect).dialect);
        let d = dialect.to_string();
        let f = features(dialect);
        pool.push(Request::Assemble {
            dialect: d.clone(),
            features: f.clone(),
            source: source.clone(),
        });
        pool.push(Request::Check {
            dialect: d.clone(),
            features: f.clone(),
            source: source.clone(),
            deny: 2,
        });
        pool.push(Request::Admit {
            dialect: d.clone(),
            features: f.clone(),
            source: source.clone(),
            deny: 2,
        });
        pool.push(Request::Vuln {
            dialect: d.clone(),
            features: f.clone(),
            source: source.clone(),
        });
        pool.push(Request::Simulate {
            dialect: d,
            features: f,
            source,
            inputs: flexkernels::inputs::Sampler::new(
                kernel,
                flexshard::shard_seed(seed, i as u64),
            )
            .draw(),
            max_cycles: SIM_BUDGET,
        });
    }
    for (i, design) in ["fc4", "fc8"].into_iter().enumerate() {
        pool.push(yield_request(
            design,
            flexshard::shard_seed(seed ^ 0x00F1_E1D0, i as u64),
        ));
    }
    pool
}

/// One client's seeded request stream. `next` yields the pool index of
/// a repeated request, or a fresh request whose cache key is unique to
/// this (seed, client, position).
pub struct Stream {
    rng: StdRng,
    client: u64,
    position: u64,
    pool_len: usize,
}

impl Stream {
    pub fn new(seed: u64, client: u64, pool_len: usize) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(flexshard::shard_seed(seed ^ 0x5E4E_0000, client)),
            client,
            position: 0,
            pool_len,
        }
    }

    pub fn next(&mut self) -> Result<usize, Request> {
        self.position += 1;
        if self.rng.gen_range(0..1000u32) >= FRESH_PER_MILLE {
            return Ok(self.rng.gen_range(0..self.pool_len));
        }
        let unique = (self.client << 40) | self.position;
        if self.rng.gen_range(0..1000u32) < YIELD_PER_MILLE_OF_FRESH {
            let design = if self.rng.gen_bool(0.5) { "fc4" } else { "fc8" };
            return Err(yield_request(design, unique));
        }
        let pairs = pairs();
        let (dialect, kernel) = pairs[self.rng.gen_range(0..pairs.len())];
        Err(Request::Simulate {
            dialect: dialect.to_string(),
            features: features(dialect),
            source: kernel.source_for(target(dialect).dialect),
            inputs: flexkernels::inputs::Sampler::new(kernel, self.rng.gen()).draw(),
            max_cycles: SIM_BUDGET + (self.client << 24 | self.position),
        })
    }
}

/// A framed request/reply connection that keeps the raw reply bytes.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(daemon: &ServerHandle) -> Result<Conn, String> {
        let stream = TcpStream::connect(daemon.addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        write_frame(&mut self.stream, payload).map_err(|e| e.to_string())?;
        read_frame(&mut self.stream).map_err(|e| format!("{e:?}"))
    }
}

/// The bytes a correct daemon sends for `reference` (the in-process
/// engine's reply), served from the cache or freshly computed.
fn expected_bytes(reference: &Reply, cached: bool) -> Vec<u8> {
    encode_reply(&Reply {
        cached,
        ..reference.clone()
    })
}

/// A running daemon on a cache directory of its own, primed with the
/// pool. Dropping it drains the daemon, deletes the directory and
/// flushes the deletion to disk.
struct Daemon {
    handle: Option<ServerHandle>,
    dir: PathBuf,
    /// The daemon's cold reply to each pool request.
    primed: Vec<Vec<u8>>,
}

impl Daemon {
    fn start(pool: &[Request]) -> Result<Daemon, String> {
        let dir = scratch_dir("serve");
        let handle = serve(ServeConfig {
            workers: threads(),
            max_connections: threads() + 2,
            cache_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon failed to start: {e}"))?;
        let mut daemon = Daemon {
            handle: Some(handle),
            dir,
            primed: Vec::new(),
        };
        let mut conn = Conn::open(daemon.handle())?;
        daemon.primed = pool
            .iter()
            .map(|r| conn.call(&encode_request(0, r)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(daemon)
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("daemon is running")
    }

    /// Drain the daemon and return its final counters.
    fn stop(mut self) -> StatusSnapshot {
        self.handle.take().expect("daemon is running").drain()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.drain();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            let _ = flush_filesystem(parent);
        }
    }
}

/// The in-process engine's reply to every pool request, and the bytes
/// the daemon must send for a primed (cached) one.
fn pool_references(pool: &[Request]) -> Vec<(Reply, Vec<u8>)> {
    let engine = Engine::new();
    pool.iter()
        .map(|r| {
            let reply = engine.execute(r, &Deadline::none());
            let hit = expected_bytes(&reply, true);
            (reply, hit)
        })
        .collect()
}

/// Failed replies among the daemon's cold priming replies.
fn check_priming(daemon: &Daemon, references: &[(Reply, Vec<u8>)]) -> u64 {
    daemon
        .primed
        .iter()
        .zip(references)
        .filter(|(bytes, (reply, _))| **bytes != expected_bytes(reply, false))
        .count() as u64
}

/// Latency samples kept per client.
const RESERVOIR: usize = 1 << 16;

/// Record `f` as a span when tracing, and return its result and wall
/// time.
fn span<T>(
    rec: &Recorder,
    name: &'static str,
    parent: Option<u64>,
    item: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    rec.time(name, parent, item, |_| clock(f))
}

/// The client loop of both modes. One connection sends `requests` in
/// order until they run out or `stop` is set, and hands each request's
/// position, the request, the reply and the call's seconds to
/// `on_reply`. With a recorder, each call is a span whose item is
/// `first_item` plus the request's position.
fn client(
    daemon: &ServerHandle,
    pool: &[Request],
    requests: impl Iterator<Item = Result<usize, Request>>,
    rec: Option<(&Recorder, u64)>,
    stop: &AtomicBool,
    mut on_reply: impl FnMut(u64, Result<usize, Request>, Result<Vec<u8>, String>, f64),
) -> Result<(), String> {
    let mut conn = Conn::open(daemon)?;
    for (position, next) in (0u64..).zip(requests) {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let payload = encode_request(
            0,
            match &next {
                Ok(i) => &pool[*i],
                Err(fresh) => fresh,
            },
        );
        let (reply, s) = match rec {
            Some((rec, first_item)) => span(
                rec,
                "flexserve.client.call",
                None,
                first_item + position,
                || conn.call(&payload),
            ),
            None => clock(|| conn.call(&payload)),
        };
        on_reply(position, next, reply, s);
    }
    Ok(())
}

/// One client's share of the timed closed loop.
struct ClientLog {
    latencies_ms: Reservoir,
    failed: u64,
    /// The stream position and the SHA-256 of the reply of each fresh
    /// request. Keeping digests rather than requests and replies keeps
    /// the loop's memory from growing with its request rate.
    fresh: Vec<(u64, [u8; 32])>,
}

/// Failed fresh replies of client `client`: regenerate its stream, and
/// compare each fresh reply's digest with that of the in-process
/// engine's reply, computed fresh (not from the cache).
fn check_fresh(seed: u64, client: u64, pool_len: usize, fresh: &[(u64, [u8; 32])]) -> u64 {
    let mut stream = Stream::new(seed, client, pool_len);
    let mut position = 0;
    let mut requests = Vec::with_capacity(fresh.len());
    for &(at, digest) in fresh {
        let next = loop {
            let next = stream.next();
            position += 1;
            if position > at {
                break next;
            }
        };
        requests.push((next, digest));
    }
    let engine = Engine::new();
    flexshard::map_indexed(requests.len(), threads(), |i| match &requests[i] {
        (Err(request), digest) => {
            let reference = engine.execute(request, &Deadline::none());
            u64::from(sha256(&expected_bytes(&reference, false)) != *digest)
        }
        (Ok(_), _) => 1,
    })
    .into_iter()
    .sum()
}

/// Failures in the daemon's own counters.
fn service_failures(stats: &StatusSnapshot) -> u64 {
    stats.sheds + stats.panics + stats.deadlines + stats.protocol_errors
}

/// Set-up samples taken before the closed loop, and again after it.
const SETUP_SAMPLES: usize = 6;

/// The timed run. Every client sends requests from its stream until
/// `seconds` elapse, checking each pool reply against the reference on
/// the way and keeping fresh ones for the oracle. Set-up samples are
/// taken before and after the loop, since a second daemon would disturb
/// it; each starts on a filesystem with nothing left to flush.
pub fn timed(seed: u64, seconds: f64) -> Result<Timed, String> {
    let pool = pool(seed);
    let mut out = Timed::new("requests");
    // Start the first set-up on a flushed filesystem too.
    let root = scratch_dir("serve");
    let root = root.parent().expect("scratch directories have a parent");
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    flush_filesystem(root)?;
    let daemon = out.set_up(SETUP_SAMPLES, || Daemon::start(&pool))?;
    let references = pool_references(&pool);
    out.needs_p99 = true;
    out.failed += check_priming(&daemon, &references);
    let clients = threads();
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (sampled, logs) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients as u64)
            .map(|c| {
                let (pool, references, handle) = (&pool, &references, daemon.handle());
                let (done, stop) = (&done, &stop);
                scope.spawn(move || {
                    let mut stream = Stream::new(seed, c, pool.len());
                    let mut log = ClientLog {
                        latencies_ms: Reservoir::new(RESERVOIR, c),
                        failed: 0,
                        fresh: Vec::new(),
                    };
                    let requests = std::iter::from_fn(|| Some(stream.next()));
                    client(
                        handle,
                        pool,
                        requests,
                        None,
                        stop,
                        |position, next, reply, s| {
                            log.latencies_ms.add(s * 1e3);
                            done.fetch_add(1, Ordering::Relaxed);
                            match (next, reply) {
                                (Ok(i), Ok(bytes)) => {
                                    log.failed += u64::from(bytes != references[i].1)
                                }
                                (Err(_), Ok(bytes)) => log.fresh.push((position, sha256(&bytes))),
                                (_, Err(_)) => log.failed += 1,
                            }
                        },
                    )?;
                    Ok::<_, String>(log)
                })
            })
            .collect();
        // Sample the request rate and peak RSS over fixed windows while
        // the clients run.
        let start = Instant::now();
        let mut sample = || -> Result<(), String> {
            let mut last = 0;
            for w in 1.. {
                let until = WINDOW_S * f64::from(w);
                if until > seconds {
                    break;
                }
                let window = out.start_pass()?;
                std::thread::sleep(Duration::from_secs_f64(
                    (until - seconds_since(start)).max(0.0),
                ));
                let now = done.load(Ordering::Relaxed);
                out.end_pass(window, (now - last) as f64)?;
                last = now;
            }
            std::thread::sleep(Duration::from_secs_f64(
                (seconds - seconds_since(start)).max(0.0),
            ));
            Ok(())
        };
        let sampled = sample();
        stop.store(true, Ordering::Relaxed);
        let logs: Vec<Result<ClientLog, String>> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (sampled, logs)
    });
    sampled?;
    let mut fresh = 0;
    for (client, log) in (0u64..).zip(logs) {
        let log = log?;
        out.attempted += log.latencies_ms.seen();
        out.failed += log.failed;
        out.latencies_ms.extend(log.latencies_ms.into_samples());
        out.failed += check_fresh(seed, client, pool.len(), &log.fresh);
        fresh += log.fresh.len();
    }
    let stats = daemon.stop();
    out.failed += service_failures(&stats);
    out.set_up(SETUP_SAMPLES, || Daemon::start(&pool))?;
    println!(
        "serve-mixed: {} fresh of {} requests, cache {:?}",
        fresh, out.attempted, stats.cache
    );
    Ok(out)
}

/// Self time of one replayed request in each daemon layer.
#[derive(Debug, Default, Clone, Copy)]
struct LayerSums {
    requests: u64,
    codec_s: f64,
    hash_s: f64,
    gets: u64,
    get_s: f64,
    puts: u64,
    put_s: f64,
    compute_s: f64,
}

fn compute_span(request: &Request) -> &'static str {
    match request {
        Request::Assemble { .. } => "flexserve.engine.assemble",
        Request::Check { .. } => "flexserve.engine.check",
        Request::Admit { .. } => "flexserve.engine.admit",
        Request::Simulate { .. } => "flexserve.engine.simulate",
        Request::Yield { .. } => "flexserve.engine.yield",
        _ => "flexserve.engine.vuln",
    }
}

/// Replay one request through the daemon's layers in process — request
/// codec, key hash, cache read, engine, cache write, reply codec — on
/// `cache`, and return the reply bytes the daemon would send.
fn replay(
    rec: &Recorder,
    cache: &DiskCache,
    engine: &Engine,
    request: &Request,
    item: u64,
    sums: &mut LayerSums,
) -> Result<Vec<u8>, String> {
    let root = rec.open("flexserve.replay", None, item);
    let parent = Some(root.id());
    sums.requests += 1;
    let (payload, s1) = span(rec, "flexserve.codec", parent, item, || {
        encode_request(0, request)
    });
    let (envelope, s2) = span(rec, "flexserve.codec", parent, item, || {
        decode_request(&payload)
    });
    let envelope = envelope.map_err(|e| e.to_string())?;
    let (core, s3) = span(rec, "flexserve.codec", parent, item, || {
        encode_core(&envelope.request)
    });
    sums.codec_s += s1 + s2 + s3;
    let (key, s) = span(rec, "flexserve.hash", parent, item, || {
        DiskCache::key_for(&core)
    });
    sums.hash_s += s;
    let mut hit = None;
    if envelope.request.cacheable() {
        let (stored, s) = span(rec, "flexserve.cache.get", parent, item, || cache.get(&key));
        sums.gets += 1;
        sums.get_s += s;
        if let Some(stored) = stored {
            let (decoded, s) = span(rec, "flexserve.codec", parent, item, || {
                decode_reply_core(&stored)
            });
            sums.codec_s += s;
            hit = decoded.ok().map(|reply| Reply {
                cached: true,
                ..reply
            });
        }
    }
    let reply = match hit {
        Some(reply) => reply,
        None => {
            let deadline = Deadline::in_ms(envelope.deadline_ms);
            let (mut reply, s) = span(rec, compute_span(&envelope.request), parent, item, || {
                engine.execute(&envelope.request, &deadline)
            });
            sums.compute_s += s;
            if envelope.request.cacheable()
                && matches!(reply.status, ReplyStatus::Ok | ReplyStatus::Error)
            {
                reply.cached = false;
                let (stored, s) = span(rec, "flexserve.codec", parent, item, || {
                    encode_reply_core(&reply)
                });
                sums.codec_s += s;
                let ((), s) = span(rec, "flexserve.cache.put", parent, item, || {
                    cache.put(&key, &stored);
                });
                sums.puts += 1;
                sums.put_s += s;
            }
            reply
        }
    };
    let (bytes, s) = span(rec, "flexserve.codec", parent, item, || {
        encode_reply(&reply)
    });
    sums.codec_s += s;
    root.end();
    Ok(bytes)
}

/// Mean µs of `Engine::execute` per request kind over the pool.
fn compute_per_kind(rec: &Recorder, pool: &[Request]) -> PassMetrics {
    let engine = Engine::new();
    let kinds = [
        ("serve.compute_us.assemble", "flexserve.engine.assemble"),
        ("serve.compute_us.check", "flexserve.engine.check"),
        ("serve.compute_us.admit", "flexserve.engine.admit"),
        ("serve.compute_us.simulate", "flexserve.engine.simulate"),
        ("serve.compute_us.vuln", "flexserve.engine.vuln"),
        ("serve.compute_us.yield", "flexserve.engine.yield"),
    ];
    let mut sums = [(0.0, 0u32); 6];
    for (i, request) in pool.iter().enumerate() {
        let name = compute_span(request);
        let (reply, s) = span(rec, name, None, i as u64, || {
            engine.execute(request, &Deadline::none())
        });
        std::hint::black_box(reply);
        let k = kinds
            .iter()
            .position(|&(_, n)| n == name)
            .expect("every kind listed");
        sums[k].0 += s;
        sums[k].1 += 1;
    }
    kinds
        .iter()
        .zip(sums)
        .map(|(&(metric, _), (s, n))| (metric, s * 1e6 / f64::from(n), "us", false))
        .collect()
}

/// One request a block sent: its span item, the request, the daemon's
/// reply bytes and the call's seconds.
type Sent = (u64, Request, Vec<u8>, f64);

/// Send each client's list on a connection of its own, all clients at
/// once; with a recorder, each call is a span. Client `c`'s items start
/// at `first_item + (c << 16)`. Returns what was sent and the block's
/// wall seconds.
fn block(
    rec: Option<&Recorder>,
    daemon: &ServerHandle,
    pool: &[Request],
    lists: &[Vec<Result<usize, Request>>],
    first_item: u64,
) -> Result<(Vec<Sent>, f64), String> {
    let never = AtomicBool::new(false);
    let start = Instant::now();
    let results: Vec<Result<Vec<Sent>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let first = first_item + ((c as u64) << 16);
                let never = &never;
                scope.spawn(move || {
                    let mut sent = Vec::with_capacity(list.len());
                    let requests = list.iter().cloned();
                    let rec = rec.map(|r| (r, first));
                    client(
                        daemon,
                        pool,
                        requests,
                        rec,
                        never,
                        |position, next, reply, s| {
                            sent.push((position, next, reply, s));
                        },
                    )?;
                    sent.into_iter()
                        .map(|(position, next, reply, s)| {
                            let request = match next {
                                Ok(i) => pool[i].clone(),
                                Err(fresh) => fresh,
                            };
                            Ok((first + position, request, reply?, s))
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = seconds_since(start);
    let mut sent = Vec::new();
    for r in results {
        sent.extend(r?);
    }
    Ok((sent, wall))
}

/// Traced passes until `seconds` elapse, or one when `None`. Each pass
/// draws a block of requests per client from the streams. The pool
/// requests among them are sent twice, untraced and traced, and the two
/// wall times give the tracing overhead: both sends are the same warm
/// hits. The fresh requests are then sent traced. Every traced request
/// is replayed through the daemon's layers in process, and the replay
/// must yield the daemon's reply bytes.
pub fn profile(rec: &Recorder, seed: u64, seconds: Option<f64>) -> Result<Profile, String> {
    let pool = pool(seed);
    let daemon = Daemon::start(&pool)?;
    let replay_dir = scratch_dir("serve-replay");
    let cache = DiskCache::open(&replay_dir).map_err(|e| e.to_string())?;
    let engine = Engine::new();
    let mut warm = LayerSums::default();
    for (i, request) in pool.iter().enumerate() {
        replay(rec, &cache, &engine, request, i as u64, &mut warm)?;
    }
    let mut streams: Vec<Stream> = (0..threads() as u64)
        .map(|c| Stream::new(seed, c, pool.len()))
        .collect();
    let mut profile = Profile::default();
    let start = Instant::now();
    let outcome = (|| {
        for pass in 0u64.. {
            let drawn: Vec<Vec<Result<usize, Request>>> = streams
                .iter_mut()
                .map(|s| (0..TRACED_BLOCK).map(|_| s.next()).collect())
                .collect();
            let (hits, fresh): (Vec<_>, Vec<_>) = drawn
                .into_iter()
                .map(|list| list.into_iter().partition::<Vec<_>, _>(Result::is_ok))
                .unzip();
            let first_item = (pass + 1) << 32;
            let untraced = || block(None, daemon.handle(), &pool, &hits, 0).map(|(_, s)| s);
            // The untraced send goes first on even passes, last on odd
            // ones; the daemon's counters cover the traced sends only.
            let untraced_first = if pass.is_multiple_of(2) {
                Some(untraced()?)
            } else {
                None
            };
            let before = daemon.handle().stats();
            let (mut sent, traced_s) = block(Some(rec), daemon.handle(), &pool, &hits, first_item)?;
            sent.extend(
                block(
                    Some(rec),
                    daemon.handle(),
                    &pool,
                    &fresh,
                    first_item | 1 << 31,
                )?
                .0,
            );
            let after = daemon.handle().stats();
            let untraced_s = match untraced_first {
                Some(s) => s,
                None => untraced()?,
            };
            let mut sums = LayerSums::default();
            for (item, request, bytes, _) in &sent {
                if replay(rec, &cache, &engine, request, *item, &mut sums)? != *bytes {
                    return Err(format!(
                        "serve-mixed: in-process replay of request {item} differs from the daemon's reply"
                    ));
                }
            }
            let n = sums.requests as f64;
            let mean_latency_us = sent.iter().map(|s| s.3).sum::<f64>() * 1e6 / n;
            let layers_us =
                (sums.codec_s + sums.hash_s + sums.get_s + sums.put_s + sums.compute_s) * 1e6 / n;
            let hits = after.cache.hits - before.cache.hits;
            let misses = after.cache.misses - before.cache.misses;
            let mut metrics = vec![
                ("serve.codec_us", sums.codec_s * 1e6 / n, "us", false),
                ("serve.hash_us", sums.hash_s * 1e6 / n, "us", false),
                (
                    "serve.cache_get_us",
                    sums.get_s * 1e6 / sums.gets.max(1) as f64,
                    "us",
                    false,
                ),
                (
                    "serve.cache_put_us",
                    sums.put_s * 1e6 / sums.puts.max(1) as f64,
                    "us",
                    false,
                ),
                ("serve.wait_us", mean_latency_us - layers_us, "us", false),
                (
                    "serve.cache_hit_ratio",
                    hits as f64 / (hits + misses).max(1) as f64,
                    "ratio",
                    false,
                ),
                (
                    "serve.sheds",
                    (after.sheds - before.sheds) as f64,
                    "count",
                    true,
                ),
            ];
            metrics.extend(compute_per_kind(rec, &pool));
            profile.add_pass(metrics, traced_s, untraced_s, sums.requests);
            if !seconds.is_some_and(|s| seconds_since(start) < s) {
                return Ok(());
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&replay_dir);
    outcome?;
    let stats = daemon.stop();
    if service_failures(&stats) > 0 {
        return Err(format!("serve-mixed: daemon reported failures: {stats:?}"));
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: u64) -> Vec<Result<usize, Request>> {
        let mut stream = Stream::new(seed, client, pool(seed).len());
        (0..3000).map(|_| stream.next()).collect()
    }

    #[test]
    fn a_seed_fixes_the_request_stream_and_another_seed_changes_it() {
        assert_eq!(pool(9), pool(9));
        assert_ne!(pool(9), pool(10));
        assert_eq!(take(9, 0), take(9, 0));
        assert_ne!(take(9, 0), take(10, 0));
        assert_ne!(take(9, 0), take(9, 1));
    }

    #[test]
    fn the_fresh_oracle_regenerates_each_fresh_request_from_its_position() {
        let (seed, client) = (4, 1);
        let pool_len = pool(seed).len();
        let engine = Engine::new();
        let mut fresh: Vec<(u64, [u8; 32])> = (0u64..)
            .zip(take(seed, client))
            .filter_map(|(position, next)| {
                let request = next.err()?;
                let reply = engine.execute(&request, &Deadline::none());
                Some((position, sha256(&expected_bytes(&reply, false))))
            })
            .collect();
        assert!(!fresh.is_empty());
        assert_eq!(check_fresh(seed, client, pool_len, &fresh), 0);
        fresh[0].1[0] ^= 1;
        assert_eq!(check_fresh(seed, client, pool_len, &fresh), 1);
    }

    #[test]
    fn fresh_requests_never_repeat_a_cache_key() {
        let mut keys: Vec<[u8; 32]> = [take(4, 0), take(4, 1)]
            .concat()
            .into_iter()
            .filter_map(Result::err)
            .map(|r| DiskCache::key_for(&encode_core(&r)))
            .collect();
        assert!(!keys.is_empty());
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }
}
