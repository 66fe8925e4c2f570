//! A real, runnable Flash-style web server on actual sockets — the
//! paper's AMPED architecture, sharded across modern cores.
//!
//! Two servers built from the shared `flash-http` machinery:
//!
//! * [`server::Server`] — **sharded AMPED**:
//!   `NetConfig::event_loops` independent event-loop shards (default
//!   `min(cores, 8)`) with a **pluggable accept path**
//!   ([`NetConfig::accept_mode`], resolved by [`sock`]): in
//!   the default reuseport mode (Linux; `Auto`, overridable with
//!   `FLASH_ACCEPT_MODE=single|reuseport`) **each shard owns its own
//!   `SO_REUSEPORT` listener** registered in its own event backend —
//!   the kernel load-balances connection setup across all shards, no
//!   acceptor thread serializes it, and no cross-thread dealing hop
//!   precedes a request; backpressure is local (a shard at
//!   its `MAX_CONNS_PER_SHARD` cap (8192), or out of
//!   descriptors, quiesces its listener interest and re-arms as slots
//!   free — `accept_backpressure` counts it). The portable single
//!   mode keeps a lightweight acceptor thread dealing connections
//!   round-robin to the shards. Each
//!   shard multiplexes its connections through the pluggable
//!   **readiness subsystem** in [`event`]: an [`EventBackend`] trait
//!   with an edge-triggered `epoll(7)` implementation (Linux; raw FFI,
//!   `EPOLLIN|EPOLLOUT|EPOLLET`, incremental `epoll_ctl` interest
//!   updates — O(ready fds) per iteration) and a portable `poll(2)`
//!   fallback (one small FFI shim in [`poll`], no external I/O crates;
//!   O(watched fds) per iteration), selected by
//!   [`NetConfig::backend`] (`Auto` = epoll on Linux,
//!   overridable with `FLASH_EVENT_BACKEND=poll|epoll`). The loop is
//!   written to the **edge-triggered contract** (see [`event`]): reads
//!   drain to `EWOULDBLOCK`, write interest is armed only while a send
//!   is in flight, and a voluntary mid-`sendfile` yield re-arms the
//!   consumed edge. Every connection carries a **per-state deadline**
//!   in its shard's hashed **timing wheel** ([`timer`]; the paper's
//!   §6.4 slow-WAN-client concern): a header-read deadline from the
//!   first request byte ([`NetConfig::header_read_timeout`],
//!   default 15 s — slowloris senders; deliberately *not* refreshed by
//!   trickled bytes), a write-progress deadline re-armed on every byte
//!   of forward progress ([`NetConfig::write_stall_timeout`],
//!   default 30 s — stalled readers, on both the `writev` and
//!   `sendfile` paths), and the keep-alive idle timeout
//!   ([`NetConfig::idle_timeout`], default 30 s) between
//!   requests; each knob is `Option` (`None` disables that class). The
//!   wheel sets the backend's wait timeout ("next wheel tick, or
//!   block") and expires in **O(expired)** — no connection-table scan
//!   — with each cause counted separately (`read_timeouts`,
//!   `write_stall_timeouts`, `idle_reaped` in [`ServerStats`]).
//!   The MT server arms and fires the same classes through the same
//!   core. Conditional requests are answered: 200s carry
//!   `Last-Modified`, a strong `ETag`, and a real, per-second-cached
//!   `Date`; `If-None-Match` / `If-Modified-Since` validators get a
//!   bodyless `304 Not Modified` (the `not_modified` counter), single
//!   `Range` requests a windowed `206`, and gzip-accepting clients a
//!   precompressed sibling when one exists — all without moving an
//!   unneeded body byte on either tier (see *The send plane* below for
//!   the precedence rules). Shards never
//!   block on disk and own a **private** [`ContentCache`], behind a
//!   lock no other thread ever takes. A shard completes a miss or
//!   revalidation itself when the kernel already holds the path and
//!   the bytes (the nowait mode of [`fsjob`]). A **shared helper
//!   pool** performs the filesystem work that would block, popping its per-shard
//!   job lanes round-robin so one cold-cache shard cannot starve the
//!   others; completions route back to the owning shard over per-shard
//!   queues with coalesced socketpair wake-ups (one wake byte per
//!   burst, not per job — the modern analogue of the paper's IPC
//!   pipes). The body path is **two-tier**: small files are cached
//!   pre-rendered and go out in a single gathered `writev(2)` (see
//!   [`writev`]) with partial-write resumption tracked across segment
//!   boundaries, while bodies above
//!   [`NetConfig::sendfile_threshold_bytes`] (default
//!   256 KiB) bypass the content cache entirely and stream from the
//!   kernel page cache with `sendfile(2)` (see [`sendfile`]) — so the
//!   in-memory cache budget holds only the small-file hot set, and a
//!   multi-gigabyte response costs no userspace memory at all.
//!   Oversized entries are likewise refused at cache admission
//!   ([`cache::MAX_ENTRY_DIVISOR`]), so one huge body can never churn
//!   a shard's working set. Cached entries do not outlive the files
//!   they were rendered from: a hit older than
//!   [`NetConfig::cache_revalidate_ttl`] (default 2 s) is
//!   re-stat'ed (on the shard or by a helper, as for a miss) before it is trusted — unchanged files
//!   revalidate for free (`revalidations`), changed or deleted ones
//!   are evicted and reloaded (`stale_evicted`).
//! * [`mt::MtServer`] — **MT**: thread-per-connection, for comparison
//!   (the §3.2 trade-off discussion, measurable with `cargo bench -p
//!   flash-bench --bench net_throughput`). Each connection thread runs
//!   the same protocol core as a shard, blocking where a shard would
//!   wait for readiness, running its disk and worker jobs itself, and
//!   sharing one locked content cache with every other thread.
//!
//! Substitutions from the 1999 original:
//! helper *threads* instead of forked processes (§3.4 permits both);
//! an application-level content cache of pre-rendered responses
//! instead of `mmap`ed files; the kernel's own residency test instead
//! of `mincore` — a shard runs each miss or revalidation itself with
//! `openat2(RESOLVE_CACHED)` and `preadv2(RWF_NOWAIT)` (see [`fsjob`]),
//! and only a job that would block goes to a helper (on kernels
//! before 5.12 and off Linux, every job does — the §5.7 fallback); and
//! N event-loop shards instead of one process — the paper
//! predates multicore; per-core loops are how its single-loop design
//! scales while keeping every invariant intact *within* a shard.
//!
//! # Architecture: one protocol core, three drivers
//!
//! Both servers are layered **sans-IO**: everything the paper is
//! *about* — request parsing, the cache/helper handoff, completion
//! routing, deadlines, drain — lives in a protocol core that performs
//! no syscalls, reads no clocks, and names no file descriptors. The
//! core is driven through three narrow seams, and everything
//! platform-shaped plugs in underneath:
//!
//! ```text
//!              ┌────────────────────────────────────────────────┐
//!              │            protocol core   [`conn`]            │
//!              │  Conn<Io> state machine · ShardCore: cache,    │
//!              │  waiter lists, job tokens, completion routing, │
//!              │  deadline policy, drain · check_invariants()   │
//!              └───────┬──────────────┬──────────────┬──────────┘
//!        seams:     ConnIo        HelperPort      Wheel + `now`
//!              (read/writev/   (submit job;     (every Instant is
//!               sendfile on     completions      a parameter; the
//!               Io::FileRef)    come back as     core never reads
//!                               plain values)    a clock)
//!              ┌───────┴──────────────┴──────────────┴──────────┐
//!   driver #1  │  real shards  [`server`] — sockets, a helper   │
//!              │  pool, socketpair wakeups, readiness via       │
//!              │  [`event`]: epoll (Linux) or poll fallback     │
//!              ├────────────────────────────────────────────────┤
//!   driver #2  │  MT threads  [`mt`] — a thread per socket,     │
//!              │  blocking in poll(2), jobs run inline, one     │
//!              │  content cache shared behind a lock            │
//!              ├────────────────────────────────────────────────┤
//!   driver #3  │  deterministic sim  [`sim`] — scripted         │
//!              │  endpoints, an event calendar + seeded RNG     │
//!              │  (`flash-simcore`), simulated time, injected   │
//!              │  faults, invariants checked every event        │
//!              └────────────────────────────────────────────────┘
//! ```
//!
//! Driver #1 is the production server described above; its loop only
//! moves bytes and readiness, so every behavior worth testing lives
//! below the seams. Driver #2 is the MT comparison server: the paper's
//! architectural difference expressed purely as driver choices (a
//! thread per connection, jobs run on that thread, a shared locked
//! cache), so the two servers differ only where the paper says they
//! do. Driver #3 replays millions of connections in
//! seconds of wall time: same-seed runs are **bit-identical** (the
//! report's fingerprint folds every response byte), and the fault mix
//! — partial writes, trickled headers, disk stalls, wedged helpers,
//! EMFILE storms, mid-run reloads — runs against the *same* core the
//! real sockets drive. `cargo run --release --example sim_replay`
//! is the CI entry point; `crates/net/tests/conn_machine.rs` uses the
//! same seams to prove byte-boundary independence exhaustively.
//!
//! ## How to add a fault to the sim
//!
//! Faults are driver-side behaviors, never core changes — the core
//! must already survive them, that's the point:
//!
//! 1. **Add a knob** to [`sim::FaultPlan`] (a probability or
//!    magnitude), defaulted into `FaultPlan::heavy()` so the CI replay
//!    exercises it.
//! 2. **Express it at a seam.** Transport faults live in the sim's
//!    `ConnIo` (shrink the write window for partial writes, delay or
//!    fragment inbox refills for slow clients); helper faults live in
//!    job dispatch (stretch the completion delay for disk stalls or
//!    wedges, drop the completion after reaping for cancellations);
//!    resource faults live in admission (refuse an accept for EMFILE).
//! 3. **Consume randomness deterministically**: draw from the single
//!    `SimRng` only inside event handlers (never during iteration over
//!    a hash map), and schedule effects through the event calendar so
//!    a seed fully determines the interleaving.
//! 4. **Assert the consequence**, not just survival: add a counter to
//!    the report if the fault has an observable outcome, and extend
//!    the in-file tests so a fault that stops firing fails loudly.
//!    `ShardCore::check_invariants` runs between events either way —
//!    leaked slots, stale-epoch cache inserts, or orphaned deadlines
//!    from the new fault fail the replay without further wiring.
//!
//! # The send plane: one response planner, every driver
//!
//! Every response body — on either tier, from any driver — is a byte
//! window `[offset, offset + len)` over a **body source**: a cached
//! entry's bytes or an opaque file reference ([`conn::BodySource`]).
//! One pure function ([`conn::plan::plan_response`]) turns a resource
//! plus the request's conditional snapshot into a
//! [`conn::ResponsePlan`] — status, header segments, windowed source —
//! and one queuing step hands the plan to the tier machinery (gathered
//! `writev` segments, or a `sendfile` window with partial-send
//! resumption and the fairness budget). The real shards, the MT
//! server, and the deterministic sim all serve `200`/`206`/`304`/`416`
//! through this single plane; a driver implements only "send this
//! window".
//!
//! Conditional precedence (RFC 9110 §13.2.2), identical everywhere:
//!
//! | Request carries | Decision |
//! |---|---|
//! | `If-None-Match` (present at all) | Compare against the representation's `ETag` (`*` matches anything); **`If-Modified-Since` is ignored entirely** |
//! | `If-Modified-Since` only | `304` iff the validator is at least as new as the file's mtime |
//! | `Range` + `If-Range` | The range applies only if the strong validator matches (or `If-Range` is absent); otherwise the full `200` |
//! | `Range`, satisfiable | `206 Partial Content` with `Content-Range: bytes a-b/len` (`range_requests`) |
//! | `Range`, unsatisfiable | `416` with `Content-Range: bytes */len` (`range_unsatisfiable`) — the connection stays open |
//! | `Range`, malformed or multi-range | Dropped at parse time → the full `200` |
//! | *(any of the above on a dynamic-prefix path)* | **Ignored entirely** — dynamic responses have no validators and no byte-addressable representation; the full `200` streams chunked (see *The dynamic tier*) |
//!
//! `ETag`s are strong and derived from `(mtime, length)` —
//! deterministic, cheap, and they change exactly when `Last-Modified`
//! would. The gzip representation's tag appends `-gz`, so the two
//! representations never share a validator.
//!
//! **Precompressed variants**: a sibling `path + ".gz"` discovered at
//! helper open time is served to `Accept-Encoding: gzip` clients under
//! `Content-Encoding: gzip` + `Vary: Accept-Encoding`, with the
//! sibling's *own* length, mtime, and `ETag` (the headers describe the
//! bytes actually sent). The identity file is opened first even for a
//! gzip preference — a missing resource `404`s identically for every
//! client, and a sibling-only `.gz` is never served. The content cache
//! keys the two representations separately ([`cache::variant_key`]:
//! `path + "\0gz"`; NUL cannot survive path normalization, so variant
//! keys cannot collide with real paths), and each cached identity
//! entry remembers whether a sibling existed so later gzip-accepting
//! clients route without a disk probe. Tier policy — the `sendfile`
//! threshold — rides on the helper job itself
//! ([`conn::HelperJob::inline_max`]), so job executors stay
//! mechanical: the AMPED helper pool and the MT server share one real
//! filesystem executor ([`fsjob`]), and the sim mirrors its mechanics
//! against the in-memory file table.
//!
//! # The dynamic tier: persistent workers, chunked streaming
//!
//! Paths under [`NetConfig::dynamic_prefix`] (builder:
//! `dynamic_prefix("/app/")`) bypass the filesystem entirely and are
//! answered by a pool of **persistent worker processes**
//! ([`appworker::WorkerPool`]) — the paper's CGI concern (§2.2,
//! `FileKind::Cgi` in the workload model) without fork-per-request:
//! each worker is spawned once over a `socketpair(2)` (its stdin *and*
//! stdout are the same socket), checked out per request, and checked
//! back in after a clean exchange. A worker that crashes, emits
//! garbage, or misses its deadline is killed and discarded; the next
//! checkout spawns a replacement (`worker_respawns`).
//!
//! The wire protocol is deliberately tiny. Server → worker, one line:
//! `<METHOD> <path>\n`. Worker → server, a frame stream:
//!
//! ```text
//! DATA <len>\n<len bytes>     (repeated; each frame = one HTTP chunk)
//! END\n                       (clean completion)
//! ```
//!
//! EOF or a malformed frame before `END` is a crash. Each `DATA` frame
//! is relayed to the client as one `Transfer-Encoding: chunked` chunk
//! ([`flash_http::chunked`]); `END` sends the `0\r\n\r\n` terminator.
//! Because the body length is unknown when the header goes out,
//! dynamic responses carry **no `Content-Length`, no `Last-Modified`,
//! no `ETag`, and no range surface** — `If-None-Match`,
//! `If-Modified-Since`, `Range`, and `If-Range` are all ignored on a
//! dynamic path (there is no representation to validate against), and
//! `HEAD` sends the chunked header plan with zero body bytes and no
//! worker consulted. The reserved `/.flash/*` endpoints keep
//! precedence over any dynamic prefix, including `/` itself.
//!
//! Worker silence is bounded by
//! [`NetConfig::dynamic_deadline`] (default 10 s), riding the
//! same timing wheel as the other deadline classes: expiry **before
//! the first frame** yields a `504 Gateway Timeout`; expiry
//! **mid-stream** severs the connection, leaving the truncation
//! visible on the wire (no chunked terminator) — a 504 after bytes of
//! a 200 have been sent would be a lie. Either way the wedged worker
//! is killed via the helper-job cancellation token and counted in
//! `dynamic_timeouts` + `worker_respawns`.
//!
//! All three drivers serve the tier: the AMPED shards relay frames
//! through the helper pool as streaming completions
//! ([`conn::DynEvent`] under a single job token), the MT server runs
//! the exchange inline on the connection thread, and the deterministic
//! sim models per-endpoint compute times from the workload's
//! `FileKind::Cgi` specs — dynamic fraction, wedges, and worker
//! crashes are all folded into its bit-identical fingerprint.
//!
//! # Lifecycle: drain, signals, and generation handoff
//!
//! A production server's restarts and deploys must be non-events. The
//! lifecycle subsystem ([`lifecycle`], [`handoff`]) gives both servers
//! a real one:
//!
//! ```text
//!            SIGTERM / drain()              last conn done
//!             (or deadline)                 (or deadline)
//!  serving ───────────────────▶ draining ───────────────────▶ exited
//!     │                            ▲
//!     │ SIGHUP / reload_docroot()  │  accepting stops, idle
//!     │ (config swaps in place,    │  keep-alives close at once,
//!     │  no connection dropped)    │  in-flight responses and
//!     └──▶ serving                 │  pipelined requests finish
//!
//!  serving ── SIGINT / stop_now() ──▶ exited   (immediate teardown)
//! ```
//!
//! | Signal    | Action                                               |
//! |-----------|------------------------------------------------------|
//! | `SIGTERM` | Drain: stop accepting, finish in-flight work, exit   |
//! | `SIGHUP`  | Reload: swap docroot + flush caches, drop no conn    |
//! | `SIGINT`  | Stop now: immediate teardown, severing connections   |
//!
//! Signals are delivered with the classic **self-pipe trick**
//! ([`lifecycle::Signals`]): an async-signal-safe handler writes the
//! signal number to a nonblocking socketpair and the orchestrator
//! (your main thread) reads it at leisure and calls
//! [`Server::drain`](server::Server::drain),
//! [`Server::reload_docroot`](server::Server::reload_docroot), or
//! [`Server::stop_now`](server::Server::stop_now).
//!
//! **Generation handoff** makes the restart itself zero-downtime: the
//! old process sends duplicates of its listening sockets
//! ([`Server::handoff_listeners`](server::Server::handoff_listeners))
//! over a unix control socket with `SCM_RIGHTS`
//! ([`handoff::send_listeners`] / [`handoff::recv_listeners`], or the
//! [`handoff::HandoffControl`] rendezvous), the new process adopts
//! them with [`Server::start_inherited`](server::Server::start_inherited),
//! and only then does the old generation drain. Because the *kernel
//! sockets* move — not just the port via a fresh `SO_REUSEPORT` bind —
//! the accept backlog survives the switch in both accept modes and no
//! SYN or queued connection is ever reset. See
//! `examples/graceful_restart.rs` for the full choreography under
//! load.
//!
//! # Observability: the flight recorder
//!
//! Every number the server knows about itself is declared once, as a
//! row of the metrics table in [`stats`]: a row names the metric, its
//! kind and merge rule, and its help string, and generates the
//! per-shard `AtomicU64` on [`ShardStats`], its [`stats::Desc`] in the
//! export registry, and its [`ServerStats`] getter. Each latency
//! histogram is a row of the matching histogram table
//! ([`stats::HistDesc`]). The getters, the Prometheus exposition, and
//! the JSON document all read through the same descriptors, so an
//! exported metric can never drift from its getter. Shards write with
//! relaxed atomics on their own cache lines (no locks, no contention
//! on the request path); readers merge per-shard values on demand
//! (counters sum, `loop_stall_max_us` takes the max).
//!
//! The list of metrics is that table: its rows are the rustdoc of
//! each [`ShardStats`] field and [`ServerStats`] getter, and a running
//! server describes each one in the `# HELP` line of
//! `/.flash/metrics`.
//!
//! Latency is recorded in **log-bucketed histograms**
//! ([`Histogram`]: 64 power-of-two nanosecond buckets, so a quantile
//! read off a merged snapshot is within one bucket — ≤ 2× relative
//! error — of the exact sample quantile, and bucket-wise merging of
//! per-shard snapshots equals the histogram of the merged stream).
//! Recording happens inside the sans-IO core with `Instant`s passed in
//! as parameters, so the real shards, the MT server, and the
//! deterministic sim produce the *same* histograms — the sim in
//! simulated time, bit-identical per seed, with the
//! [`HistSummary`] digests folded into its fingerprinted report.
//!
//! The `phase_*` counters and the **stall watchdog** are the direct
//! probe of the AMPED contract that the event loop never blocks: each
//! iteration's non-wait time is split across the six phases, its
//! maximum is kept in `loop_stall_max_us`, and any iteration busier
//! than the shard loop's `LOOP_STALL_THRESHOLD` (100 ms) increments
//! `loop_stalls` — a nonzero value means some phase performed blocking
//! work on the event thread.
//!
//! ## Endpoints
//!
//! With [`NetConfig::metrics_endpoint`] enabled (builder:
//! `metrics_endpoint(true)`), both servers answer two reserved
//! paths in-band on every shard, served from the counters without
//! touching cache or helpers:
//!
//! * `GET /.flash/metrics` — Prometheus text exposition
//!   (`text/plain; version=0.0.4`): every scalar as
//!   `flash_<name> <value>` with `# HELP`/`# TYPE`, every histogram as
//!   cumulative `flash_<name>_bucket{le="<nanos>"}` lines plus `_sum`
//!   and `_count`.
//! * `GET /.flash/stats` — the same registry as one JSON document:
//!   `{"counters": {...}, "gauges": {...}, "histograms": {"<name>":
//!   {"count", "sum_nanos", "p50_nanos", "p99_nanos"}}}`.
//!
//! These responses count only `metrics_requests`, never `requests` —
//! scrapes don't perturb the workload numbers they report.
//!
//! ## Access log
//!
//! [`NetConfig::access_log_path`] (builder:
//! `access_log_path(path)`) turns on a structured per-response log,
//! one line per completed response in common-log field order with
//! latency and serving tier appended:
//!
//! ```text
//! host - - [unix_ts] "METHOD path" status bytes latency_us tier
//! ```
//!
//! where `tier` is `hit`, `miss`, `sendfile`, `not_modified`, or
//! `error`. The core stages records clock-free; each shard batches
//! them into a single `write_all` against an `O_APPEND` descriptor at
//! the end of its loop iteration, so concurrent shards (or MT worker
//! threads) interleave whole batches — never fragments of a line. The
//! logrotate handshake is
//! [`Server::rotate_access_logs`](server::Server::rotate_access_logs)
//! (typically mapped from `SIGHUP` alongside the reload): rename the
//! file, signal, and every writer reopens the configured path.
//!
//! # Quick start
//!
//! ```no_run
//! use flash_net::{NetConfig, Server};
//!
//! // The builder is the only way to a NetConfig: it starts from
//! // working defaults and rejects inconsistent combinations before
//! // any socket is opened.
//! let cfg = NetConfig::builder("./public")
//!     .dynamic_prefix("/app/")
//!     .metrics_endpoint(true)
//!     .build()
//!     .unwrap();
//! let server = Server::start("127.0.0.1:8080", cfg).unwrap();
//! println!("serving on http://{}", server.addr());
//! println!("event-loop shards: {}", server.stats().per_shard().len());
//! // ... later: finish what's in flight, bounded by drain_timeout.
//! server.drain();
//! ```
//!
//! Code that only *operates* a server — batteries, lifecycle
//! harnesses, examples comparing the two architectures — can start
//! either one behind the shared [`ServeHandle`] surface instead:
//! `handle::start(ServerKind::Amped | ServerKind::Mt, addr, cfg)`
//! returns a `Box<dyn ServeHandle>` with `local_addr` / `stats` /
//! `reload_docroot` / `drain` / `stop`.

pub mod appworker;
pub mod cache;
pub mod config;
pub mod conn;
pub mod event;
pub mod fsjob;
pub mod handle;
pub mod handoff;
pub mod lifecycle;
pub mod mt;
pub mod poll;
pub mod report;
pub mod sendfile;
pub mod server;
pub mod sim;
pub mod sock;
pub mod stats;
pub mod timer;
pub mod writev;

pub use appworker::WorkerPool;
pub use cache::{ContentCache, Entry};
pub use config::{ConfigError, NetConfig, NetConfigBuilder};
pub use event::{BackendChoice, BackendKind, EventBackend};
pub use handle::{ServeHandle, ServerKind};
pub use handoff::{recv_listeners, request_listeners, send_listeners, HandoffControl};
pub use lifecycle::{send_to_self, Signal, Signals};
pub use mt::MtServer;
pub use report::BenchReport;
pub use server::Server;
pub use sock::{AcceptMode, AcceptModeKind};
pub use stats::{HistSnapshot, HistSummary, Histogram, ServerStats, ShardStats};
