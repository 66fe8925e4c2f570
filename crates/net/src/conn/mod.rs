//! The **sans-IO protocol core**: the connection state machine and
//! per-shard bookkeeping, kept free of syscalls so one body of protocol
//! logic runs under three drivers — the AMPED event loop in
//! [`crate::server`] (nonblocking sockets, `writev(2)`, `sendfile(2)`,
//! the shared helper-thread pool), the MT server in [`crate::mt`]
//! (one blocking thread per connection, jobs run inline, one locked
//! cache), and the deterministic simulation in [`crate::sim`]
//! (in-memory endpoints, simulated time, scheduled fault injection,
//! millions of replayed connections).
//!
//! The core speaks through two narrow traits and two existing seams:
//!
//! * [`ConnIo`] — everything the state machine ever asks of a
//!   transport: `read`, gathered `writev`, and one `sendfile` chunk
//!   against an opaque [`ConnIo::FileRef`]. Both real drivers
//!   implement it over a nonblocking `TcpStream` (with
//!   `FileRef = Arc<File>`); the sim implements it over byte queues
//!   with windows and injected partial writes (with a value-type file
//!   handle).
//! * [`HelperPort`] — how the core dispatches disk and worker jobs.
//!   The core submits a [`HelperJob`] and later receives a [`Done`];
//!   whether a helper thread pool, the submitting thread itself, or a
//!   simulated-latency scheduler sits behind the port is the driver's
//!   business.
//! * the [`crate::event::EventBackend`] and [`crate::timer::TimerWheel`]
//!   seams: readiness and deadlines stay driver-owned, with the core
//!   exposing [`machine::desired_interest`], [`machine::sync_deadline`]
//!   and [`ShardCore::expire_deadline`] so every driver arms and fires
//!   them the same way.
//!
//! Layout: [`machine`] holds the per-connection state machine
//! ([`machine::Conn`], flush/gather/advance, deadline sync); [`shard`]
//! holds the per-shard protocol state ([`shard::ShardCore`]: content
//! cache, miss coalescing, job cancellation, reload epochs, drain,
//! deadline expiry, the close path) and the request/completion
//! transitions. Nothing in this module performs a syscall or reads a
//! clock — every instant is a parameter.

pub mod machine;
pub mod plan;
pub mod shard;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use machine::{Conn, ConnState, DeadlineKind, Drive};
pub use plan::{BodySource, FileRep, RequestCond, Resource, ResponsePlan};
pub use shard::{Expiry, ShardCore};

pub use crate::stats::ShardStats;

use crate::cache::Variant;

/// The transport seam: every I/O operation the connection state
/// machine performs, with nonblocking semantics — `WouldBlock` means
/// "retry when the driver says so", exactly as on a nonblocking
/// socket. Implementations must never block: a driver that blocks
/// (the MT server's threads, in `poll(2)` on their one socket) does
/// so between drives, bounded by its next deadline.
pub trait ConnIo {
    /// An opaque handle to a large body served without materializing
    /// its bytes in the core (`Arc<File>` for the real `sendfile(2)`
    /// path; a value type in the sim). `Clone` because one file can be
    /// mid-stream on many connections at once.
    type FileRef: Clone;

    /// Reads request bytes; `Ok(0)` is peer EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Gathered write of the queued response segments; returns bytes
    /// accepted (possibly a partial write mid-iovec).
    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize>;

    /// Transmits up to `max` bytes of `file` starting at `*offset`,
    /// advancing `*offset` past the bytes sent. `Ok(0)` means the file
    /// ended early (it shrank after stat — a protocol-fatal condition).
    fn sendfile(&mut self, file: &Self::FileRef, offset: &mut u64, max: u64) -> io::Result<usize>;
}

/// The disk seam: the core submits jobs, the driver (helper pool,
/// the submitting thread, or simulated disk) executes them and feeds
/// the resulting [`Done`] back into
/// [`shard::ShardCore::complete_job`].
pub trait HelperPort {
    /// Dispatches one job. Must not block, but may *complete* the job
    /// if that needs no blocking — the AMPED shards finish jobs whose
    /// path and bytes the kernel already caches this way. The [`Done`]
    /// still goes through `complete_job`, after the drive returns
    /// (the core parks the waiter only once `submit` is back). A
    /// driver that runs blocking jobs inline queues them here and runs
    /// them after the drive returns.
    fn submit(&mut self, job: HelperJob);
}

/// What a helper does for a job: read the file, or merely re-stat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Open and read (or open-for-`sendfile`) — a cache miss.
    Load,
    /// Open and `fstat` only — a cache hit past its revalidation TTL;
    /// the shard compares the result against the cached entry.
    Revalidate,
    /// A dynamic-tier request: hand the URL path to a persistent
    /// application worker and stream its output back as [`DynEvent`]s.
    /// Unlike the filesystem kinds this job produces *multiple*
    /// completions under one token — every chunk the worker emits,
    /// then a terminal [`DynEvent::End`]. Never coalesced and never
    /// cached; `fs_path` carries the request's URL path verbatim and
    /// `path` a synthetic per-dispatch waiter key.
    Dynamic,
}

/// One unit of disk work dispatched through a [`HelperPort`].
pub struct HelperJob {
    /// Variant-cache key (the waiter-coalescing key): the URL path for
    /// identity, [`crate::cache::variant_key`]'s marked form for gzip.
    pub path: String,
    /// Filesystem path of the **identity** representation; executors
    /// derive the `.gz` sibling path from it when the job concerns the
    /// gzip variant.
    pub fs_path: PathBuf,
    pub kind: JobKind,
    /// Which representation the job concerns. For [`JobKind::Load`]
    /// this is a *preference*: `Gzip` means "probe the `.gz` sibling,
    /// serve it if present, fall back to identity" — the result
    /// reports which variant actually loaded. For
    /// [`JobKind::Revalidate`] it is exact (a gzip entry re-stats the
    /// sibling file).
    pub variant: Variant,
    /// Read the body into memory only when the representation is at
    /// most this many bytes; larger files come back as an open handle
    /// for the `sendfile` window path. The value is core policy
    /// (`ProtoConfig::sendfile_threshold`) carried on the job so
    /// executors stay mechanical — no driver consults the config.
    pub inline_max: u64,
    /// The dispatching shard's reload epoch; echoed back on the
    /// [`Done`] so a completion that raced a SIGHUP reload can be
    /// served to its waiters without poisoning the fresh cache.
    pub epoch: u64,
    /// Per-dispatch token, echoed back on the [`Done`]. The shard
    /// accepts a completion only while the *same* dispatch is still
    /// pending — a completion surviving past a cancellation (or a
    /// newer dispatch for the same path) is dropped wholesale.
    pub token: u64,
    /// Cooperative cancellation flag, set when the job's last waiter
    /// is reaped: an executor that observes it before doing the disk
    /// work skips the job entirely (the CGI-tier prerequisite — a
    /// long-running worker must be stoppable, not merely ignorable).
    pub cancel: Arc<AtomicBool>,
}

impl HelperJob {
    /// Whether this job was cancelled after dispatch. Executors check
    /// before (and long-running ones, during) the work; a cancelled
    /// job needs no completion — its pending entry is already gone.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }
}

/// What a job execution hands back for a readable file: either the
/// bytes themselves (small representation, destined for the content
/// cache — `len <= HelperJob::inline_max`) or an opaque file handle
/// plus its stat'ed length (large representation, destined for the
/// `sendfile` window path — the shard never sees the body at all).
/// Both carry the fstat'ed mtime so responses advertise
/// `Last-Modified` and conditional requests can be answered `304`.
#[derive(Debug)]
pub enum FileData<F> {
    Bytes {
        body: Vec<u8>,
        mtime: Option<i64>,
    },
    Fd {
        file: F,
        len: u64,
        mtime: Option<i64>,
    },
}

/// A [`JobKind::Load`] execution's full result: which representation
/// actually loaded (a gzip *preference* falls back to identity when no
/// sibling exists), its payload, and whether a `.gz` sibling was seen
/// — the identity entry records that to emit `Vary` and to route
/// gzip-accepting clients.
#[derive(Debug)]
pub struct LoadResult<F> {
    pub data: FileData<F>,
    /// The representation `data` holds.
    pub variant: Variant,
    /// Whether a `.gz` sibling existed at load time.
    pub has_gzip: bool,
}

/// One event in a dynamic job's completion stream. A [`JobKind::Dynamic`]
/// job delivers zero or more `Chunk`s followed by exactly one `End`,
/// all under the same dispatch token; the pending entry survives until
/// the `End` (or a cancellation) retires it.
#[derive(Debug, Clone)]
pub enum DynEvent {
    /// One body chunk produced by the worker, rendered on the wire as
    /// one `Transfer-Encoding: chunked` frame.
    Chunk(bytes::Bytes),
    /// The worker finished. `clean` means the protocol's terminal
    /// frame was seen (the response ends with the zero-length chunk);
    /// `!clean` means the worker crashed or was killed mid-body — the
    /// response is truncated without a terminal frame (pre-header, it
    /// becomes a `500`).
    End { clean: bool },
}

/// A completion's payload, matching the job's [`JobKind`].
pub enum DoneData<F> {
    /// [`JobKind::Load`]: the file's contents (or open handle), ready
    /// to render and cache.
    Loaded(io::Result<LoadResult<F>>),
    /// [`JobKind::Revalidate`]: the file's current (length, mtime)
    /// from a bare open+`fstat` — no bytes read.
    Stat(io::Result<(u64, Option<i64>)>),
    /// [`JobKind::Dynamic`]: one event of the worker's output stream.
    Dynamic(DynEvent),
}

/// A finished helper job, routed back to the dispatching shard.
pub struct Done<F> {
    pub path: String,
    pub data: DoneData<F>,
    /// Echo of [`HelperJob::epoch`] — see there.
    pub epoch: u64,
    /// Echo of [`HelperJob::token`] — see there.
    pub token: u64,
}

/// The protocol-relevant slice of the server configuration: what the
/// core needs to route requests and classify deadlines, and nothing a
/// driver owns (shard counts, socket options, backend choice).
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Directory served as the document root (the sim resolves
    /// against its simulated filesystem; the URL-path join rule is the
    /// core's either way).
    pub docroot: PathBuf,
    /// Keep-alive idle deadline (`None` disables the class).
    pub idle_timeout: Option<Duration>,
    /// Slow-header deadline, armed once per request.
    pub header_read_timeout: Option<Duration>,
    /// Write-progress deadline, re-armed on forward progress.
    pub write_stall_timeout: Option<Duration>,
    /// Helper-completion deadline for `Waiting` connections.
    pub helper_wait_timeout: Option<Duration>,
    /// Content-cache revalidation TTL (`None` trusts entries forever).
    pub cache_revalidate_ttl: Option<Duration>,
    /// The two-tier body policy, owned by the core: representations at
    /// most this many bytes are cached pre-rendered and sent with
    /// `writev`; larger ones stream through the `sendfile` window seam.
    /// Carried onto every [`HelperJob`] as `inline_max`.
    pub sendfile_threshold: u64,
    /// Serve `GET /.flash/metrics` (Prometheus text) and
    /// `/.flash/stats` (JSON) in-band on the normal parse/respond
    /// path. Off by default; endpoint responses count under
    /// [`ShardStats::metrics_requests`], not `requests`.
    pub metrics_endpoint: bool,
    /// URL-path prefix routed to the dynamic tier (persistent
    /// application workers, chunked responses). `None` disables the
    /// tier. The `/.flash/` endpoints always take precedence, even
    /// under a prefix of `/`.
    pub dynamic_prefix: Option<String>,
    /// Per-request worker deadline for `Waiting` dynamic connections,
    /// re-armed on every chunk: a wedged worker yields a `504` (or a
    /// severed stream once headers are out) and the worker is killed
    /// and respawned. `None` disables the class.
    pub dynamic_deadline: Option<Duration>,
    /// Stage an [`crate::stats::AccessRecord`] per completed response
    /// in [`ShardCore::access_log`] for the driver to drain and write.
    pub access_log: bool,
}
