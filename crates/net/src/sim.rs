//! The **deterministic simulation driver** for the sans-IO protocol
//! core in [`crate::conn`]: the same `ShardCore`/`Conn` state machine
//! the real event loop runs, bound to in-memory endpoints, a simulated
//! clock ([`flash_simcore::EventQueue`]), and a seeded RNG
//! ([`flash_simcore::SimRng`]) — so millions of connections replay in
//! seconds of wall time, **bit-for-bit reproducibly**: the same seed
//! produces the same [`SimReport`], fingerprint included.
//!
//! What the sim injects that loopback tests cannot (not reliably, not
//! on demand, and never twice the same way):
//!
//! * **partial writes** — the peer's receive window opens a few dozen
//!   bytes at a time, landing every flush mid-iovec and mid-`sendfile`;
//! * **trickled headers** — request bytes dribble in 1–4 byte chunks,
//!   walking a slowloris straight into the header-read deadline;
//! * **disk stalls and wedged helpers** — job completions delayed past
//!   the helper-wait deadline, so waiters are reaped, jobs cancelled,
//!   and late completions must die on the token gate;
//! * **EMFILE storms** — accepts that fail and retry, exercising the
//!   backpressure path;
//! * **mid-run reloads and a final drain** — epoch bumps with jobs in
//!   flight (stale-epoch completions must serve waiters but never
//!   populate the fresh cache) and a drain that must terminate.
//!
//! After every event (configurable cadence at scale) the harness runs
//! [`ShardCore::check_invariants`]: no leaked slots or waiter
//! registrations, waiters ⇔ pending-jobs bijection, every armed
//! deadline tracked by the wheel. A run that violates an invariant,
//! livelocks (fuel exhausted), or strands a connection returns `Err`.
//!
//! Determinism rules: the only wall-clock value in the response stream
//! is the `Date` header (rendered by `flash_http::date` from real
//! time); the fingerprint scrubs those 29 bytes before hashing.
//! Everything else — simulated time, RNG, event order (FIFO within an
//! instant) — is a pure function of the seed.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use flash_core::{FileKind, FileSpec};
use flash_simcore::time::{Nanos, SimTime, MILLI, SEC};
use flash_simcore::{EventQueue, SimRng};
use flash_workload::Zipf;

use crate::cache::{self, Variant};
use crate::conn::machine::{sync_deadline, Conn, ConnState};
use crate::conn::{
    ConnIo, Done, DoneData, Drive, DynEvent, Expiry, FileData, HelperJob, HelperPort, JobKind,
    LoadResult, ProtoConfig, ShardCore, ShardStats,
};
use crate::stats::HistSummary;
use crate::timer::TimerWheel;

/// Fault-injection probabilities, all independent. `none()` is a
/// clean-network baseline; [`FaultPlan::heavy`] is the CI setting.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Per-connection: request bytes arrive in 1–4 byte chunks with
    /// millisecond gaps (slowloris; many die on the header deadline).
    pub trickle: f64,
    /// Per-connection: the receive window opens 64–512 bytes at a
    /// time, forcing partial writes on every flush.
    pub partial_write: f64,
    /// Per-job: completion delayed ~50 ms (past the helper-wait
    /// deadline — the waiter is reaped, the job cancelled).
    pub disk_stall: f64,
    /// Per-job: completion delayed 5 s (a wedged helper; the late
    /// completion must be dropped by cancel flag or token mismatch).
    pub wedge: f64,
    /// Per-accept: the accept fails (EMFILE storm) and is retried.
    pub emfile: f64,
    /// Per-dynamic-exchange: the application worker crashes mid-body —
    /// some chunks arrive, then an unclean end (no chunked terminator
    /// on the wire) and a worker respawn.
    pub worker_crash: f64,
}

impl FaultPlan {
    /// No faults: every byte arrives promptly, every window is wide,
    /// every helper answers fast.
    pub fn none() -> FaultPlan {
        FaultPlan {
            trickle: 0.0,
            partial_write: 0.0,
            disk_stall: 0.0,
            wedge: 0.0,
            emfile: 0.0,
            worker_crash: 0.0,
        }
    }

    /// The fault mix the CI replay runs under.
    pub fn heavy() -> FaultPlan {
        FaultPlan {
            trickle: 0.05,
            partial_write: 0.06,
            disk_stall: 0.04,
            wedge: 0.01,
            emfile: 0.02,
            worker_crash: 0.03,
        }
    }
}

/// One simulated run's shape. `connections` is the number admitted;
/// each plays a 1–4 request keep-alive script drawn from the seed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    pub connections: u64,
    /// Admission cap (the sim's `MAX_CONNS_PER_SHARD`); opens beyond
    /// it are backpressured and retried.
    pub max_concurrent: usize,
    /// Content-cache budget — deliberately small so eviction and
    /// re-load churn under Zipf traffic.
    pub cache_bytes: u64,
    /// Bodies at or above this stream through the simulated
    /// `sendfile` path instead of the cache.
    pub sendfile_threshold: u64,
    /// Run the full invariant check every N events (0 = only at
    /// reloads, drain, and end). Small runs use 1; CI-scale uses ~512.
    pub check_every: u64,
    /// Mean open-to-open gap in simulated nanoseconds.
    pub interarrival_nanos: Nanos,
    /// Per-GET/HEAD fraction carrying a single-range `Range` header
    /// (mix of satisfiable spans, suffixes, and past-EOF → 416).
    pub range_fraction: f64,
    /// Per-GET fraction carrying `If-None-Match` (60/40 current
    /// validator → 304 vs stale → 200), drawn against the
    /// representation the request will negotiate.
    pub inm_fraction: f64,
    /// Per-request fraction advertising `Accept-Encoding: gzip`,
    /// steering negotiation onto the simulated `.gz` siblings.
    pub gzip_fraction: f64,
    /// Per-request fraction routed to the dynamic tier (a simulated
    /// application endpoint under [`DYN_PREFIX`], streamed back as
    /// chunked frames — the [`flash_core::FileKind::Cgi`] workload
    /// model replayed through the shard's streaming plane).
    pub dynamic_fraction: f64,
    /// Mean of the exponential jitter added to each simulated
    /// application's fixed per-request compute time.
    pub dynamic_compute_nanos: Nanos,
    pub faults: FaultPlan,
}

impl SimConfig {
    /// Defaults tuned for fault-heavy replay: small cache, low
    /// `sendfile` threshold (both body tiers exercised), sampled
    /// invariant checks.
    pub fn new(seed: u64, connections: u64) -> SimConfig {
        SimConfig {
            seed,
            connections,
            max_concurrent: 256,
            cache_bytes: 256 * 1024,
            sendfile_threshold: 16 * 1024,
            check_every: 512,
            interarrival_nanos: 150_000,
            range_fraction: 0.12,
            inm_fraction: 0.10,
            gzip_fraction: 0.25,
            dynamic_fraction: 0.08,
            dynamic_compute_nanos: 2 * MILLI,
            faults: FaultPlan::heavy(),
        }
    }
}

/// Everything a run observed, every field a pure function of
/// (`SimConfig`, file set): two runs with the same inputs must compare
/// equal — that comparison IS the determinism test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Connections admitted (== `SimConfig::connections` on success).
    pub connections: u64,
    /// Responses completed (any status).
    pub requests: u64,
    /// Response bytes transmitted (headers + both body tiers).
    pub bytes: u64,
    /// Order-sensitive FNV fold of every connection's full response
    /// stream (Date headers scrubbed — the one wall-clock leak).
    pub fingerprint: u64,
    pub cache_hits: u64,
    pub helper_jobs: u64,
    pub jobs_cancelled: u64,
    pub helper_wait_timeouts: u64,
    pub read_timeouts: u64,
    pub write_stall_timeouts: u64,
    pub idle_reaped: u64,
    pub not_modified: u64,
    /// Well-formed single-range requests that reached a file response
    /// (satisfiable or not), and the subset answered 416.
    pub range_requests: u64,
    pub range_unsatisfiable: u64,
    pub revalidations: u64,
    pub stale_evicted: u64,
    pub drained_conns: u64,
    pub accept_backpressure: u64,
    /// Dynamic-tier traffic: requests routed to the worker pool, the
    /// 504s/severs its silence deadline produced, and the worker
    /// respawns (crashes, plus kills of wedged/cancelled exchanges).
    pub dynamic_requests: u64,
    pub dynamic_timeouts: u64,
    pub worker_respawns: u64,
    /// Mid-run docroot reloads applied (epoch bumps).
    pub reloads: u64,
    /// Connection-lifetime percentiles, simulated nanoseconds.
    pub p50_conn_nanos: u64,
    pub p99_conn_nanos: u64,
    /// Simulated instant the last event fired.
    pub sim_elapsed_nanos: u64,
    /// Calendar events processed.
    pub events: u64,
    /// Summaries of the same per-shard latency histograms the real
    /// drivers record ([`crate::stats`]), fed simulated time through
    /// the identical instrumentation path — and, via this report's
    /// `Eq`, part of the bit-identical-per-seed guarantee.
    pub hist_request: HistSummary,
    pub hist_ttfb: HistSummary,
    pub hist_helper_wait: HistSummary,
    pub hist_lifetime: HistSummary,
    /// Submit-to-first-frame wait per dynamic exchange — the sim's
    /// worker-wait histogram, fingerprint-stable per seed.
    pub hist_worker_wait: HistSummary,
}

/// A simulated file: identity and metadata only — body bytes are the
/// pure function [`body_byte`]`(id, offset)`, so a multi-gigabyte
/// simulated docroot costs nothing to hold.
#[derive(Debug, Clone)]
pub struct SimFile {
    pub id: u32,
    pub len: u64,
    pub mtime: i64,
}

/// Deterministic body byte for file `id` at `offset` — what the
/// simulated disk "reads" and the simulated `sendfile` streams.
pub fn body_byte(id: u32, offset: u64) -> u8 {
    ((id as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(offset.wrapping_mul(0x9E37_79B1))
        % 251) as u8
}

/// The gzip twin of an identity file id — high bit set, so
/// [`body_byte`] streams a distinct (still deterministic) sequence for
/// the compressed representation.
pub fn gz_id(id: u32) -> u32 {
    id | 0x8000_0000
}

/// The simulated `.gz` sibling of an identity file, if the docroot
/// "has one": every third file is precompressed, ~2/3 the identity
/// length (so siblings land on both sides of the sendfile threshold
/// too) and slightly newer. A pure function of the identity file —
/// part of the per-seed determinism contract.
pub fn gzip_sibling(f: &SimFile) -> Option<SimFile> {
    if f.id & 0x8000_0000 != 0 || !f.id.is_multiple_of(3) {
        return None;
    }
    Some(SimFile {
        id: gz_id(f.id),
        len: (f.len * 2 / 3).max(1),
        mtime: f.mtime + 7,
    })
}

/// The URL namespace the sim routes to its dynamic tier (the
/// `ProtoConfig::dynamic_prefix` every simulated shard runs with).
pub const DYN_PREFIX: &str = "/app/";

/// One simulated application endpoint — the sim's realization of the
/// workload model's [`FileKind::Cgi`] `{ compute_ns, output_bytes }`:
/// a fixed per-request compute time and a deterministic response body
/// streamed back as chunked frames.
#[derive(Debug, Clone)]
struct DynApp {
    /// Body-byte id-space with the top two bits set — never collides
    /// with static file ids or their gzip twins.
    id: u32,
    compute_ns: Nanos,
    output_bytes: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Blanks the 29-byte IMF-fixdate value after every `Date: ` in place
/// — the only wall-clock bytes in a response stream.
fn scrub_dates(buf: &mut [u8]) {
    const PAT: &[u8] = b"Date: ";
    const VAL: usize = flash_http::date::IMF_FIXDATE_LEN;
    let mut i = 0;
    while i + PAT.len() + VAL <= buf.len() {
        if &buf[i..i + PAT.len()] == PAT {
            for b in &mut buf[i + PAT.len()..i + PAT.len() + VAL] {
                *b = b'#';
            }
            i += PAT.len() + VAL;
        } else {
            i += 1;
        }
    }
}

/// What one connection transmitted, shared between its [`SimIo`] (which
/// appends) and the driver's slot table (which outlives the `Conn` —
/// the state machine closes slots internally, and the response stream
/// must survive that close to be fingerprinted).
#[derive(Clone)]
struct Capture {
    opened_at: SimTime,
    /// The `writev` stream verbatim (headers + small bodies).
    bytes: Vec<u8>,
    /// Running FNV over the `sendfile` stream (never buffered — large
    /// bodies carry no headers, so no scrubbing is needed).
    body_hash: u64,
    body_bytes: u64,
}

impl Capture {
    fn new(opened_at: SimTime) -> Capture {
        Capture {
            opened_at,
            bytes: Vec::new(),
            body_hash: FNV_OFFSET,
            body_bytes: 0,
        }
    }
}

/// The simulated transport: an inbox the driver fills from the
/// connection's arrival script, a receive window the driver refills
/// (tiny refills = the partial-write fault), and the shared capture.
pub struct SimIo {
    uid: u32,
    inbox: VecDeque<u8>,
    window: usize,
    refill_pending: bool,
    /// Remaining request chunks: (delay before this chunk, bytes).
    script: VecDeque<(Nanos, Vec<u8>)>,
    /// Window refills stay tiny for this connection's whole life.
    partial: bool,
    cap: Rc<RefCell<Capture>>,
}

impl ConnIo for SimIo {
    type FileRef = SimFile;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.inbox.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.inbox.len());
        for slot in buf.iter_mut().take(n) {
            *slot = self.inbox.pop_front().unwrap();
        }
        Ok(n)
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        if self.window == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let mut cap = self.cap.borrow_mut();
        let mut n = 0;
        for b in bufs {
            if self.window == 0 {
                break;
            }
            let take = self.window.min(b.len());
            cap.bytes.extend_from_slice(&b[..take]);
            self.window -= take;
            n += take;
        }
        Ok(n)
    }

    fn sendfile(&mut self, file: &SimFile, offset: &mut u64, max: u64) -> io::Result<usize> {
        if self.window == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let left = file.len.saturating_sub(*offset);
        if left == 0 {
            return Ok(0);
        }
        let n = max.min(self.window as u64).min(left);
        let mut cap = self.cap.borrow_mut();
        for off in *offset..*offset + n {
            cap.body_hash = fnv(cap.body_hash, body_byte(file.id, off));
        }
        cap.body_bytes += n;
        *offset += n;
        self.window -= n as usize;
        Ok(n as usize)
    }
}

/// The sim's [`HelperPort`]: collects submissions for the driver to
/// schedule as latency-delayed completion events.
struct SimPort {
    jobs: Vec<HelperJob>,
}

impl HelperPort for SimPort {
    fn submit(&mut self, job: HelperJob) {
        self.jobs.push(job);
    }
}

/// The calendar's event alphabet.
enum Ev {
    /// Admit the next planned connection (or backpressure and retry).
    Open,
    /// Deliver the next request chunk to a connection's inbox.
    Arrive { slot: usize, uid: u32 },
    /// The peer's receive window opens further.
    Refill { slot: usize, uid: u32 },
    /// A helper job's completion lands at the shard.
    HelperDone(HelperJob),
    /// Timer-wheel backstop: expire deadlines in a quiet calendar.
    Tick,
    /// All connections admitted: the shard enters drain.
    BeginDrain,
}

fn conn_token(slot: usize, uid: u32) -> u64 {
    ((slot as u64) << 32) | uid as u64
}

struct Sim {
    cfg: SimConfig,
    files: HashMap<String, SimFile>,
    paths: Vec<String>,
    /// Dynamic endpoints by URL path, plus a stable pick order.
    apps: HashMap<String, DynApp>,
    app_paths: Vec<String>,
    zipf: Zipf,
    rng: SimRng,
    queue: EventQueue<Ev>,
    /// Real-clock anchor: simulated instant `t` is `base + t` (the
    /// wheel and cache speak `Instant`; only differences matter).
    base: Instant,
    wheel: TimerWheel,
    core: ShardCore,
    port: SimPort,
    conns: Vec<Option<Conn<SimIo>>>,
    caps: Vec<Option<Rc<RefCell<Capture>>>>,
    uids: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    opened: u64,
    next_uid: u32,
    tick_at: Option<SimTime>,
    latencies: Vec<u64>,
    fingerprint: u64,
    bytes: u64,
    reloads: u64,
    completed_scratch: Vec<usize>,
    expired_scratch: Vec<u64>,
}

impl Sim {
    fn new(cfg: SimConfig, specs: &[FileSpec]) -> Sim {
        let mut files = HashMap::new();
        let mut paths = Vec::with_capacity(specs.len());
        let mut apps = HashMap::new();
        let mut app_paths = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            // Cgi specs become dynamic endpoints (below), not files.
            if let FileKind::Cgi {
                compute_ns,
                output_bytes,
            } = s.kind
            {
                let path = if s.path.starts_with(DYN_PREFIX) {
                    s.path.clone()
                } else {
                    format!("/app{}", s.path)
                };
                let app = DynApp {
                    id: 0xC000_0000 | app_paths.len() as u32,
                    compute_ns,
                    output_bytes,
                };
                app_paths.push(path.clone());
                apps.insert(path, app);
                continue;
            }
            let id = i as u32;
            files.insert(
                s.path.clone(),
                SimFile {
                    id,
                    len: s.size,
                    // Deterministic, distinct per file, in the
                    // parseable IMF-fixdate range.
                    mtime: 800_000_000 + id as i64 * 61,
                },
            );
            paths.push(s.path.clone());
        }
        if apps.is_empty() {
            // No Cgi specs in the site: synthesize a small application
            // set, a pure function of the index (compute times 1–5 ms,
            // bodies a few chunks long — the FileKind::Cgi shape).
            for i in 0u32..12 {
                let path = format!("{DYN_PREFIX}{i}");
                let app = DynApp {
                    id: 0xC000_0000 | i,
                    compute_ns: (1 + i as u64 % 5) * MILLI,
                    output_bytes: 200 + (i as u64 * 977) % 6000,
                };
                app_paths.push(path.clone());
                apps.insert(path, app);
            }
        }
        let base = Instant::now();
        let proto = ProtoConfig {
            docroot: PathBuf::from("/sim"),
            idle_timeout: Some(Duration::from_millis(120)),
            header_read_timeout: Some(Duration::from_millis(100)),
            write_stall_timeout: Some(Duration::from_millis(150)),
            helper_wait_timeout: Some(Duration::from_millis(20)),
            cache_revalidate_ttl: Some(Duration::from_millis(5)),
            sendfile_threshold: cfg.sendfile_threshold,
            metrics_endpoint: false,
            access_log: false,
            dynamic_prefix: Some(DYN_PREFIX.to_string()),
            // Generous against the 1–5 ms compute times, decisive
            // against the 5 s wedge fault.
            dynamic_deadline: Some(Duration::from_millis(100)),
        };
        let stats = Arc::new(ShardStats::default());
        Sim {
            core: ShardCore::new(0, cfg.cache_bytes, proto, stats),
            zipf: Zipf::new(paths.len().max(1), 1.0),
            rng: SimRng::new(cfg.seed),
            queue: EventQueue::new(),
            wheel: TimerWheel::new_at(Duration::from_millis(2), base),
            base,
            files,
            paths,
            apps,
            app_paths,
            port: SimPort { jobs: Vec::new() },
            conns: Vec::new(),
            caps: Vec::new(),
            uids: Vec::new(),
            free: Vec::new(),
            live: 0,
            opened: 0,
            next_uid: 0,
            tick_at: None,
            latencies: Vec::new(),
            fingerprint: FNV_OFFSET,
            bytes: 0,
            reloads: 0,
            completed_scratch: Vec::new(),
            expired_scratch: Vec::new(),
            cfg,
        }
    }

    fn now_i(&self) -> Instant {
        self.base + Duration::from_nanos(self.queue.now().as_nanos())
    }

    /// One connection's whole life as request chunks: 1–4 pipelineable
    /// requests (the last `Connection: close`), a sprinkling of HEAD,
    /// POST, conditional, and missing-path requests, delivered whole
    /// or trickled byte-by-byte per the fault plan.
    fn build_script(&mut self, trickle: bool) -> VecDeque<(Nanos, Vec<u8>)> {
        let nreq = 1 + self.rng.uniform(0, 4);
        let mut stream = Vec::new();
        for i in 0..nreq {
            let last = i + 1 == nreq;
            let roll = self.rng.unit();
            let (method, path) = if roll < 0.02 {
                ("POST", "/submit".to_string())
            } else if roll < 0.05 {
                ("GET", format!("/missing/{}.html", self.rng.uniform(0, 997)))
            } else if roll < 0.07 {
                ("GET", "/".to_string())
            } else if self.rng.chance(self.cfg.dynamic_fraction) {
                // Dynamic tier: a worker-pool endpoint. No validators
                // or ranges are drawn below — `rep` resolves to None —
                // matching the tier's conditional bypass.
                let pick = self.rng.uniform(0, self.app_paths.len() as u64) as usize;
                let m = if self.rng.chance(0.05) { "HEAD" } else { "GET" };
                (m, self.app_paths[pick].clone())
            } else {
                let pick = self.zipf.sample(&mut self.rng);
                let m = if self.rng.chance(0.05) { "HEAD" } else { "GET" };
                (m, self.paths[pick].clone())
            };
            let accept_gzip = method != "POST" && self.rng.chance(self.cfg.gzip_fraction);
            // The representation this request will negotiate: the `.gz`
            // sibling when the client accepts gzip and the file has
            // one, the identity file otherwise. Conditional validators
            // and range bounds are drawn against it, exactly as a real
            // client revalidating or resuming a prior download would.
            let rep = self.files.get(&path).map(|f| {
                if accept_gzip {
                    gzip_sibling(f).unwrap_or_else(|| f.clone())
                } else {
                    f.clone()
                }
            });
            let ims = if method == "GET" && self.rng.chance(0.15) {
                rep.as_ref().map(|f| {
                    // 60/40 current validator (→ 304) vs stale (→ 200).
                    if self.rng.chance(0.6) {
                        f.mtime
                    } else {
                        f.mtime - 7200
                    }
                })
            } else {
                None
            };
            let inm = if method == "GET" && self.rng.chance(self.cfg.inm_fraction) {
                rep.as_ref().map(|f| {
                    let gz = f.id & 0x8000_0000 != 0;
                    if self.rng.chance(0.6) {
                        flash_http::etag_value(Some(f.mtime), f.len, gz)
                    } else {
                        flash_http::etag_value(Some(f.mtime - 7200), f.len, gz)
                    }
                })
            } else {
                None
            };
            let range = if method != "POST" && self.rng.chance(self.cfg.range_fraction) {
                rep.as_ref().map(|f| {
                    let roll = self.rng.unit();
                    if roll < 0.10 {
                        // Past EOF: unsatisfiable → 416.
                        format!("bytes={}-", f.len + 1 + self.rng.uniform(0, 1000))
                    } else if roll < 0.25 {
                        // Suffix form.
                        format!("bytes=-{}", 1 + self.rng.uniform(0, f.len.max(1)))
                    } else {
                        let start = self.rng.uniform(0, f.len.max(1));
                        let end = start + self.rng.uniform(0, f.len - start + 64);
                        format!("bytes={start}-{end}")
                    }
                })
            } else {
                None
            };
            stream
                .extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: sim\r\n").as_bytes());
            if accept_gzip {
                stream.extend_from_slice(b"Accept-Encoding: gzip\r\n");
            }
            if let Some(t) = ims {
                stream.extend_from_slice(
                    format!("If-Modified-Since: {}\r\n", flash_http::date::format_imf(t))
                        .as_bytes(),
                );
            }
            if let Some(tag) = inm {
                stream.extend_from_slice(format!("If-None-Match: {tag}\r\n").as_bytes());
            }
            if let Some(r) = range {
                stream.extend_from_slice(format!("Range: {r}\r\n").as_bytes());
            }
            if last {
                stream.extend_from_slice(b"Connection: close\r\n");
            }
            stream.extend_from_slice(b"\r\n");
        }
        let mut script = VecDeque::new();
        let mut off = 0;
        while off < stream.len() {
            let (chunk, delay) = if trickle {
                // Slow enough that a typical request needs longer than
                // the header deadline — most trickled requests are the
                // slowloris the deadline exists for; short ones squeak
                // through.
                (
                    1 + self.rng.uniform(0, 4) as usize,
                    MILLI + self.rng.uniform(0, 9 * MILLI),
                )
            } else {
                (
                    256 + self.rng.uniform(0, 1792) as usize,
                    50_000 + self.rng.uniform(0, MILLI),
                )
            };
            let end = (off + chunk).min(stream.len());
            script.push_back((delay, stream[off..end].to_vec()));
            off = end;
        }
        script
    }

    fn admit(&mut self) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.caps.push(None);
            self.uids.push(0);
            self.conns.len() - 1
        });
        let uid = self.next_uid;
        self.next_uid = self.next_uid.wrapping_add(1);
        let trickle = self.rng.chance(self.cfg.faults.trickle);
        let partial = self.rng.chance(self.cfg.faults.partial_write);
        let window = if partial {
            64 + self.rng.uniform(0, 448) as usize
        } else {
            2048 + self.rng.uniform(0, 30 * 1024) as usize
        };
        let script = self.build_script(trickle);
        let cap = Rc::new(RefCell::new(Capture::new(self.queue.now())));
        let first_delay = script.front().map(|(d, _)| *d);
        let mut conn = Conn::new(SimIo {
            uid,
            inbox: VecDeque::new(),
            window,
            refill_pending: false,
            script,
            partial,
            cap: Rc::clone(&cap),
        });
        // Simulated accept instant: the lifetime histogram ticks in
        // simulated time, exactly like the real driver's wall clock.
        conn.opened_at = Some(self.now_i());
        self.conns[slot] = Some(conn);
        self.caps[slot] = Some(cap);
        self.uids[slot] = uid;
        self.live += 1;
        self.core.stats.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = first_delay {
            self.queue.schedule_in(d, Ev::Arrive { slot, uid });
        }
        // Drive immediately (arms the idle deadline, exactly like the
        // real driver's admit path).
        self.drive(slot);
    }

    /// Pumps one connection as far as it goes, reconciling deadlines
    /// and scheduling a window refill when output is gated on the
    /// peer; mirrors the real driver's `drive_and_sync`.
    fn drive(&mut self, slot: usize) {
        loop {
            let now = self.now_i();
            let outcome = self
                .core
                .drive_conn(slot, &mut self.conns, &mut self.port, now);
            self.dispatch_jobs();
            match outcome {
                Drive::Yielded => continue,
                Drive::Closed => {
                    self.finalize(slot);
                    return;
                }
                Drive::Blocked => {
                    let Some(conn) = self.conns[slot].as_mut() else {
                        return;
                    };
                    let token = conn_token(slot, conn.io.uid);
                    sync_deadline(conn, token, &self.core.cfg, &mut self.wheel, now);
                    let gated =
                        conn.io.window == 0 && (!conn.out.is_empty() || conn.sendfile.is_some());
                    if gated && !conn.io.refill_pending {
                        conn.io.refill_pending = true;
                        let uid = conn.io.uid;
                        let d = 50_000 + self.rng.exp(0.4 * MILLI as f64) as u64;
                        self.queue.schedule_in(d, Ev::Refill { slot, uid });
                    }
                    return;
                }
            }
        }
    }

    /// Turns collected job submissions into latency-delayed completion
    /// events, with the disk-stall and wedged-helper faults applied
    /// per job.
    fn dispatch_jobs(&mut self) {
        if self.port.jobs.is_empty() {
            return;
        }
        let jobs = std::mem::take(&mut self.port.jobs);
        for job in jobs {
            let delay = if job.kind == JobKind::Dynamic {
                // The compute-time model: the endpoint's fixed
                // per-request compute plus exponential jitter — or a
                // wedged worker, parked far past `dynamic_deadline`.
                if self.rng.chance(self.cfg.faults.wedge) {
                    5 * SEC
                } else {
                    let compute = self
                        .apps
                        .get(job.fs_path.to_string_lossy().as_ref())
                        .map(|a| a.compute_ns)
                        .unwrap_or(MILLI);
                    compute + 100_000 + self.rng.exp(self.cfg.dynamic_compute_nanos as f64) as u64
                }
            } else if self.rng.chance(self.cfg.faults.wedge) {
                5 * SEC
            } else if self.rng.chance(self.cfg.faults.disk_stall) {
                50 * MILLI + self.rng.exp(5.0 * MILLI as f64) as u64
            } else {
                100_000 + self.rng.exp(2.0 * MILLI as f64) as u64
            };
            self.queue.schedule_in(delay, Ev::HelperDone(job));
        }
    }

    /// The simulated disk, mirroring [`crate::fsjob`] mechanically: no
    /// tier or variant policy of its own — the inline/fd split obeys
    /// [`HelperJob::inline_max`], the representation obeys
    /// [`HelperJob::variant`] (a gzip preference serves the simulated
    /// `.gz` sibling when the identity file has one, falling back to
    /// identity otherwise; a missing identity file is `NotFound` even
    /// when a sibling "exists").
    fn exec_job(&self, job: &HelperJob) -> Done<SimFile> {
        let url = cache::split_variant_key(&job.path).0;
        let data = match self.files.get(url) {
            None => match job.kind {
                JobKind::Load => DoneData::Loaded(Err(io::ErrorKind::NotFound.into())),
                JobKind::Revalidate => DoneData::Stat(Err(io::ErrorKind::NotFound.into())),
                // Dynamic jobs are intercepted in `Ev::HelperDone` and
                // streamed through `dynamic_done`, never this
                // single-shot executor.
                JobKind::Dynamic => unreachable!("dynamic job reached the sim disk"),
            },
            Some(f) => match job.kind {
                JobKind::Dynamic => unreachable!("dynamic job reached the sim disk"),
                JobKind::Revalidate => {
                    // Stat the file the entry's variant came from.
                    let probe = if job.variant.is_gzip() {
                        gzip_sibling(f)
                    } else {
                        Some(f.clone())
                    };
                    match probe {
                        Some(v) => DoneData::Stat(Ok((v.len, Some(v.mtime)))),
                        None => DoneData::Stat(Err(io::ErrorKind::NotFound.into())),
                    }
                }
                JobKind::Load => {
                    let sibling = gzip_sibling(f);
                    let has_gzip = sibling.is_some();
                    let (serve, variant) = match sibling.filter(|_| job.variant.is_gzip()) {
                        Some(gz) => (gz, Variant::Gzip),
                        None => (f.clone(), Variant::Identity),
                    };
                    let data = if serve.len > job.inline_max {
                        FileData::Fd {
                            len: serve.len,
                            mtime: Some(serve.mtime),
                            file: serve,
                        }
                    } else {
                        FileData::Bytes {
                            body: (0..serve.len).map(|o| body_byte(serve.id, o)).collect(),
                            mtime: Some(serve.mtime),
                        }
                    };
                    DoneData::Loaded(Ok(LoadResult {
                        data,
                        variant,
                        has_gzip,
                    }))
                }
            },
        };
        Done {
            path: job.path.clone(),
            data,
            epoch: job.epoch,
            token: job.token,
        }
    }

    /// Delivers one dynamic exchange's whole event stream at a single
    /// simulated instant: the worker's frames synthesized from the
    /// endpoint's [`FileKind::Cgi`]-shaped model (1 KiB chunk split),
    /// ending clean — or unclean on the worker-crash fault, killing
    /// the body roughly halfway. A cancelled job (the `DynamicWait`
    /// deadline fired and purged the waiter, raising the flag) models
    /// the helper's kill+respawn: the respawn is counted, and half the
    /// time the completion is delivered anyway — it must die on the
    /// token gate inside `complete_job`.
    fn dynamic_done(&mut self, job: HelperJob) {
        if job.is_cancelled() {
            self.core
                .stats
                .worker_respawns
                .fetch_add(1, Ordering::Relaxed);
            if self.rng.chance(0.5) {
                return;
            }
        }
        let mut events = Vec::new();
        match self.apps.get(job.fs_path.to_string_lossy().as_ref()) {
            // No such application: the exchange fails pre-header.
            None => events.push(DynEvent::End { clean: false }),
            Some(app) => {
                let crash = self.rng.chance(self.cfg.faults.worker_crash);
                let emit_up_to = if crash {
                    app.output_bytes / 2
                } else {
                    app.output_bytes
                };
                let mut off = 0u64;
                while off < emit_up_to {
                    let take = (emit_up_to - off).min(1024);
                    let body: Vec<u8> = (off..off + take).map(|o| body_byte(app.id, o)).collect();
                    events.push(DynEvent::Chunk(Bytes::from(body)));
                    off += take;
                }
                events.push(DynEvent::End { clean: !crash });
            }
        }
        if !job.is_cancelled() && matches!(events.last(), Some(DynEvent::End { clean: false })) {
            // A crashed worker is killed and respawned by the helper.
            self.core
                .stats
                .worker_respawns
                .fetch_add(1, Ordering::Relaxed);
        }
        let mut completed = std::mem::take(&mut self.completed_scratch);
        completed.clear();
        let now = self.now_i();
        for ev in events {
            let done = Done {
                path: job.path.clone(),
                data: DoneData::Dynamic(ev),
                epoch: job.epoch,
                token: job.token,
            };
            self.core
                .complete_job(done, &mut self.conns, &mut completed, &mut self.port, now);
        }
        self.dispatch_jobs();
        // Every event pushes the same slot; drive it once.
        completed.dedup();
        for idx in completed.drain(..) {
            self.drive(idx);
        }
        self.completed_scratch = completed;
    }

    /// Retires a now-empty slot: cancels its wheel key, scrubs and
    /// fingerprints its captured response stream, frees the slot.
    fn finalize(&mut self, slot: usize) {
        self.wheel.cancel(conn_token(slot, self.uids[slot]));
        let Some(cap) = self.caps[slot].take() else {
            return;
        };
        let cap = Rc::try_unwrap(cap)
            .map(RefCell::into_inner)
            .unwrap_or_else(|rc| rc.borrow().clone());
        let mut head = cap.bytes;
        scrub_dates(&mut head);
        let mut h = FNV_OFFSET;
        for &b in &head {
            h = fnv(h, b);
        }
        h ^= cap.body_hash.rotate_left(17);
        self.fingerprint = (self.fingerprint ^ h).wrapping_mul(FNV_PRIME);
        self.bytes += head.len() as u64 + cap.body_bytes;
        self.latencies.push(self.queue.now().since(cap.opened_at));
        self.free.push(slot);
        self.live -= 1;
    }

    /// Expires due deadlines through the core (as the real loop does)
    /// and keeps a backstop `Tick` scheduled for the next pending one.
    fn pump_timers(&mut self) {
        let now = self.now_i();
        let mut expired = std::mem::take(&mut self.expired_scratch);
        self.wheel.expire(now, &mut expired);
        for tok in expired.drain(..) {
            let slot = (tok >> 32) as usize;
            let uid = tok as u32;
            let live = self
                .conns
                .get(slot)
                .and_then(|c| c.as_ref())
                .is_some_and(|c| c.io.uid == uid);
            if !live {
                continue;
            }
            match self.core.expire_deadline(slot, &mut self.conns, now) {
                Expiry::Respond => self.drive(slot),
                Expiry::Closed => self.finalize(slot),
                Expiry::Stale => {}
            }
        }
        self.expired_scratch = expired;
        if let Some(ms) = self.wheel.next_timeout_ms(now) {
            let at = self.queue.now() + (ms.max(1) as u64) * MILLI;
            if self.tick_at.is_none_or(|t| at < t) {
                self.queue.schedule_at(at, Ev::Tick);
                self.tick_at = Some(at);
            }
        }
    }

    fn check(&self, when: &str) -> Result<(), String> {
        let uids = &self.uids;
        self.core
            .check_invariants(&self.conns, &self.wheel, |i| conn_token(i, uids[i]))
            .map_err(|e| {
                format!(
                    "invariant violated ({when}, event {}, t={:?}): {e}",
                    self.queue.events_processed(),
                    self.queue.now()
                )
            })
    }

    fn handle(&mut self, ev: Ev) -> Result<(), String> {
        match ev {
            Ev::Open => {
                if self.opened >= self.cfg.connections {
                    return Ok(());
                }
                if self.live >= self.cfg.max_concurrent || self.rng.chance(self.cfg.faults.emfile) {
                    self.core
                        .stats
                        .accept_backpressure
                        .fetch_add(1, Ordering::Relaxed);
                    self.queue.schedule_in(2 * MILLI, Ev::Open);
                    return Ok(());
                }
                self.admit();
                self.opened += 1;
                // Two mid-run reloads with jobs in flight: stale-epoch
                // completions must serve waiters, never the new cache.
                let third = self.cfg.connections / 3;
                if third > 0 && (self.opened == third || self.opened == 2 * third) {
                    let generation = self.core.epoch + 1;
                    self.core.apply_reload(None, generation);
                    self.reloads += 1;
                    self.check("after reload")?;
                }
                if self.opened < self.cfg.connections {
                    let gap = 1 + self.rng.exp(self.cfg.interarrival_nanos as f64) as u64;
                    self.queue.schedule_in(gap, Ev::Open);
                } else {
                    self.queue.schedule_in(5 * MILLI, Ev::BeginDrain);
                }
            }
            Ev::Arrive { slot, uid } => {
                let Some(conn) = self
                    .conns
                    .get_mut(slot)
                    .and_then(|c| c.as_mut())
                    .filter(|c| c.io.uid == uid)
                else {
                    return Ok(());
                };
                if let Some((_, chunk)) = conn.io.script.pop_front() {
                    conn.io.inbox.extend(chunk);
                    if let Some(&(d, _)) = conn.io.script.front() {
                        self.queue.schedule_in(d, Ev::Arrive { slot, uid });
                    }
                    self.drive(slot);
                }
            }
            Ev::Refill { slot, uid } => {
                let Some(conn) = self
                    .conns
                    .get_mut(slot)
                    .and_then(|c| c.as_mut())
                    .filter(|c| c.io.uid == uid)
                else {
                    return Ok(());
                };
                conn.io.refill_pending = false;
                let add = if conn.io.partial {
                    64 + self.rng.uniform(0, 448) as usize
                } else {
                    8 * 1024 + self.rng.uniform(0, 56 * 1024) as usize
                };
                conn.io.window += add;
                self.drive(slot);
            }
            Ev::HelperDone(job) => {
                if job.kind == JobKind::Dynamic {
                    self.dynamic_done(job);
                    return Ok(());
                }
                // A cancelled job is usually skipped by the executor
                // (the cooperative flag); half the time we model a
                // helper already past the check — its completion must
                // then die on the token gate inside `complete_job`.
                if job.is_cancelled() && self.rng.chance(0.5) {
                    return Ok(());
                }
                let done = self.exec_job(&job);
                let mut completed = std::mem::take(&mut self.completed_scratch);
                completed.clear();
                let now = self.now_i();
                self.core
                    .complete_job(done, &mut self.conns, &mut completed, &mut self.port, now);
                self.dispatch_jobs();
                for idx in completed.drain(..) {
                    self.drive(idx);
                }
                self.completed_scratch = completed;
            }
            Ev::Tick => {
                self.tick_at = None;
            }
            Ev::BeginDrain => {
                self.core.begin_drain();
                // Sweep idle keep-alives at once, like the real
                // driver's drain entry.
                for slot in 0..self.conns.len() {
                    let idle = matches!(
                        &self.conns[slot],
                        Some(c) if matches!(c.state, ConnState::Reading)
                            && c.parser.buffered() == 0
                            && c.out.is_empty()
                            && c.sendfile.is_none()
                    );
                    if idle {
                        let now = self.now_i();
                        self.core
                            .stats
                            .drained_conns
                            .fetch_add(1, Ordering::Relaxed);
                        self.core.close_conn(slot, &mut self.conns, now);
                        self.finalize(slot);
                    }
                }
                self.check("after drain entry")?;
            }
        }
        Ok(())
    }
}

/// Replays `cfg.connections` simulated connections against the shared
/// protocol core and the given file set. Returns the run's
/// [`SimReport`] — or `Err` on any invariant violation, stranded
/// connection, or livelock. Same inputs ⇒ equal report, always.
pub fn run(cfg: &SimConfig, specs: &[FileSpec]) -> Result<SimReport, String> {
    if specs.is_empty() {
        return Err("sim needs a non-empty file set".into());
    }
    let mut sim = Sim::new(cfg.clone(), specs);
    sim.queue.schedule_in(1, Ev::Open);
    let fuel = cfg.connections.saturating_mul(500) + 1_000_000;
    while let Some((_, ev)) = sim.queue.pop() {
        sim.handle(ev)?;
        sim.pump_timers();
        if cfg.check_every > 0 && sim.queue.events_processed().is_multiple_of(cfg.check_every) {
            sim.check("periodic")?;
        }
        if sim.queue.events_processed() > fuel {
            return Err(format!(
                "fuel exhausted after {} events with {} connections live — livelock",
                sim.queue.events_processed(),
                sim.live
            ));
        }
    }
    if sim.live != 0 {
        return Err(format!(
            "calendar empty but {} connections never terminated",
            sim.live
        ));
    }
    sim.check("final")?;
    if !sim.core.waiters.is_empty() || !sim.core.pending_jobs.is_empty() {
        return Err("leaked waiter lists or pending jobs at end of run".into());
    }
    sim.latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if sim.latencies.is_empty() {
            0
        } else {
            sim.latencies[((sim.latencies.len() - 1) as f64 * q) as usize]
        }
    };
    let s = &sim.core.stats;
    let ld = Ordering::Relaxed;
    Ok(SimReport {
        connections: sim.opened,
        requests: s.requests.load(ld),
        bytes: sim.bytes,
        fingerprint: sim.fingerprint,
        cache_hits: s.cache_hits.load(ld),
        helper_jobs: s.helper_jobs.load(ld),
        jobs_cancelled: s.jobs_cancelled.load(ld),
        helper_wait_timeouts: s.helper_wait_timeouts.load(ld),
        read_timeouts: s.read_timeouts.load(ld),
        write_stall_timeouts: s.write_stall_timeouts.load(ld),
        idle_reaped: s.idle_reaped.load(ld),
        not_modified: s.not_modified.load(ld),
        range_requests: s.range_requests.load(ld),
        range_unsatisfiable: s.range_unsatisfiable.load(ld),
        revalidations: s.revalidations.load(ld),
        stale_evicted: s.stale_evicted.load(ld),
        drained_conns: s.drained_conns.load(ld),
        accept_backpressure: s.accept_backpressure.load(ld),
        dynamic_requests: s.dynamic_requests.load(ld),
        dynamic_timeouts: s.dynamic_timeouts.load(ld),
        worker_respawns: s.worker_respawns.load(ld),
        reloads: sim.reloads,
        p50_conn_nanos: pct(0.50),
        p99_conn_nanos: pct(0.99),
        sim_elapsed_nanos: sim.queue.now().as_nanos(),
        events: sim.queue.events_processed(),
        hist_request: s.hist_request.snapshot().summary(),
        hist_ttfb: s.hist_ttfb.snapshot().summary(),
        hist_helper_wait: s.hist_helper_wait.snapshot().summary(),
        hist_lifetime: s.hist_lifetime.snapshot().summary(),
        hist_worker_wait: s.hist_worker_wait.snapshot().summary(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_workload::sitegen::{generate_files, SizeDist};

    fn small_site(seed: u64) -> Vec<FileSpec> {
        let mut rng = SimRng::new(seed);
        let dist = SizeDist {
            body_median: 2_000.0,
            body_sigma: 1.0,
            tail_fraction: 0.03,
            tail_scale: 20_000.0,
            tail_alpha: 1.3,
            max_bytes: 128 * 1024,
        };
        generate_files(&mut rng, 512 * 1024, &dist)
    }

    /// Checked on every event: a few thousand fault-heavy connections
    /// with the invariant checker at maximum cadence.
    #[test]
    fn fault_heavy_run_holds_invariants_every_event() {
        let site = small_site(7);
        let mut cfg = SimConfig::new(42, 2_000);
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("invariants must hold");
        assert_eq!(report.connections, 2_000);
        assert!(report.requests > 1_000, "requests: {}", report.requests);
        assert!(report.bytes > 0);
        assert!(report.cache_hits > 0, "Zipf traffic must hit the cache");
        assert!(report.helper_jobs > 0);
        assert_eq!(report.reloads, 2, "both mid-run reloads must apply");
        assert!(
            report.helper_wait_timeouts > 0,
            "wedged/stalled helpers must reap waiters: {report:?}"
        );
        assert!(
            report.jobs_cancelled > 0,
            "reaped last-waiters must cancel their jobs: {report:?}"
        );
        assert!(
            report.read_timeouts > 0,
            "trickled headers must hit the header deadline: {report:?}"
        );
        assert!(
            report.not_modified > 0,
            "current-validator IMS/INM requests must 304: {report:?}"
        );
        assert!(
            report.range_requests > 0,
            "the range fraction must reach file responses: {report:?}"
        );
        assert!(
            report.range_unsatisfiable > 0,
            "past-EOF ranges must 416: {report:?}"
        );
        assert!(
            report.range_unsatisfiable < report.range_requests,
            "most generated ranges are satisfiable: {report:?}"
        );
        assert!(report.drained_conns > 0, "drain must retire idle conns");
        // The dynamic fraction must reach the worker pool, and the
        // fault mix must produce both respawns (crashes) and wedges
        // reaped by the DynamicWait deadline.
        assert!(report.dynamic_requests > 0, "{report:?}");
        assert!(report.worker_respawns > 0, "{report:?}");
        assert!(
            report.hist_worker_wait.count > 0,
            "delivered dynamic exchanges must record a worker wait: {report:?}"
        );
        // The histograms ride the same drive path: every completed
        // response has a latency sample, every admitted connection a
        // lifetime sample, and parked waiters a helper-wait sample.
        assert_eq!(report.hist_request.count, report.requests, "{report:?}");
        assert_eq!(report.hist_lifetime.count, report.connections, "{report:?}");
        assert!(report.hist_helper_wait.count > 0, "{report:?}");
        assert!(report.hist_ttfb.count > 0, "{report:?}");
        assert!(report.hist_request.p99_nanos >= report.hist_request.p50_nanos);
    }

    /// The acceptance bar: same seed ⇒ byte-identical report (the
    /// fingerprint folds every scrubbed response byte), different
    /// seed ⇒ a different stream.
    #[test]
    fn same_seed_is_bit_identical_different_seed_is_not() {
        let site = small_site(7);
        let cfg = SimConfig::new(1234, 3_000);
        let a = run(&cfg, &site).expect("run A");
        let b = run(&cfg, &site).expect("run B");
        assert_eq!(a, b, "same seed must replay bit-for-bit");

        let other = run(&SimConfig::new(1235, 3_000), &site).expect("run C");
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "different seeds should not collide"
        );
    }

    /// With faults off and generous pacing, nothing times out and no
    /// job is ever cancelled — the reap counters are all quiet.
    #[test]
    fn clean_run_has_no_timeouts_or_cancellations() {
        let site = small_site(9);
        let mut cfg = SimConfig::new(5, 1_500);
        cfg.faults = FaultPlan::none();
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("clean run");
        assert_eq!(report.connections, 1_500);
        assert_eq!(report.helper_wait_timeouts, 0, "{report:?}");
        assert_eq!(report.jobs_cancelled, 0, "{report:?}");
        assert_eq!(report.read_timeouts, 0, "{report:?}");
        assert_eq!(report.write_stall_timeouts, 0, "{report:?}");
        assert_eq!(report.dynamic_timeouts, 0, "{report:?}");
        assert_eq!(report.worker_respawns, 0, "{report:?}");
        assert!(report.requests > 1_500, "{report:?}");
        assert!(
            report.dynamic_requests > 0,
            "the dynamic fraction must draw requests: {report:?}"
        );
    }

    /// Wedged application workers must be reaped by the DynamicWait
    /// deadline: a heavy wedge fraction yields 504s (`dynamic_timeouts`)
    /// and kills (`worker_respawns`), and the run stays bit-identical
    /// per seed — the dynamic tier is inside the fingerprint contract.
    #[test]
    fn wedged_workers_time_out_deterministically() {
        let site = small_site(17);
        let mut cfg = SimConfig::new(99, 2_000);
        cfg.dynamic_fraction = 0.25;
        cfg.faults = FaultPlan::none();
        cfg.faults.wedge = 0.10;
        cfg.faults.worker_crash = 0.05;
        cfg.check_every = 1;
        let report = run(&cfg, &site).expect("wedged run");
        assert!(report.dynamic_requests > 50, "{report:?}");
        assert!(
            report.dynamic_timeouts > 0,
            "wedged exchanges must 504 on the DynamicWait deadline: {report:?}"
        );
        assert!(
            report.worker_respawns > 0,
            "wedges and crashes must retire workers: {report:?}"
        );
        assert!(
            report.jobs_cancelled > 0,
            "purged dynamic waiters must cancel their jobs: {report:?}"
        );
        let again = run(&cfg, &site).expect("wedged run again");
        assert_eq!(report, again, "dynamic traffic stays bit-identical");
    }

    /// Both body tiers must be exercised: the sim's threshold sits
    /// inside the generated size range, so some bodies stream through
    /// the simulated `sendfile` and some through `writev`.
    #[test]
    fn both_body_tiers_are_exercised() {
        let site = small_site(11);
        assert!(
            site.iter().any(|f| f.size >= 16 * 1024),
            "need a large file"
        );
        assert!(site.iter().any(|f| f.size < 16 * 1024), "need a small file");
        let report = run(&SimConfig::new(77, 2_000), &site).expect("run");
        assert!(report.bytes > 0);
    }

    /// Variant negotiation must be live in the stream: turning the
    /// Accept-Encoding fraction off changes what the same seed serves
    /// (the gzip representation has different bytes, lengths, and
    /// validators). `chance(0.0)` still consumes an RNG draw, so the
    /// two runs share arrival order and differ only in negotiation.
    #[test]
    fn gzip_negotiation_reaches_the_wire() {
        let site = small_site(13);
        assert!(
            site.len() >= 3,
            "need enough files for some to have gz siblings"
        );
        let mut cfg = SimConfig::new(21, 1_000);
        cfg.faults = FaultPlan::none();
        let with_gz = run(&cfg, &site).expect("gzip run");
        let mut cfg_id = cfg.clone();
        cfg_id.gzip_fraction = 0.0;
        let identity_only = run(&cfg_id, &site).expect("identity run");
        assert_ne!(
            with_gz.fingerprint, identity_only.fingerprint,
            "negotiated gzip variants must change the response stream"
        );
        let again = run(&cfg, &site).expect("gzip run again");
        assert_eq!(with_gz, again, "variant traffic stays bit-identical");
    }

    #[test]
    fn date_scrubbing_blanks_only_the_value() {
        let mut buf =
            b"HTTP/1.1 200 OK\r\nDate: Fri, 08 Aug 2026 12:00:00 GMT\r\nX: y\r\n\r\n".to_vec();
        let before = buf.len();
        scrub_dates(&mut buf);
        assert_eq!(buf.len(), before);
        assert!(buf.windows(6).any(|w| w == b"Date: "));
        assert!(
            !buf.windows(3).any(|w| w == b"GMT"),
            "the date value must be gone"
        );
        assert!(
            buf.windows(8).any(|w| w == b"\r\nX: y\r\n"),
            "neighbours intact"
        );
    }
}
