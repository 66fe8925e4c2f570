//! The real AMPED web server, sharded across cores: N independent
//! event loops (one per core by default, capped at 8), each a faithful
//! copy of the paper's single-process architecture (§3.4, §5), plus a
//! shared helper pool for disk I/O.
//!
//! Layout:
//!
//! * the **accept path** is pluggable ([`NetConfig::accept_mode`],
//!   resolved by [`crate::sock`]): in the default **reuseport** mode
//!   (Linux) every shard owns its own `SO_REUSEPORT` listening socket
//!   registered in its own event backend — the kernel hashes incoming
//!   connections across the listeners, each shard drains its accepts
//!   to `EWOULDBLOCK` under the ET contract, and there is **no
//!   acceptor thread and no dealing hop**. Backpressure is local: a
//!   shard at its `MAX_CONNS_PER_SHARD` cap (or hitting
//!   `EMFILE`/`ENFILE` — counted as `accept_backpressure`) drops its
//!   listener's read interest, letting the backlog queue in the
//!   kernel or hash to its siblings, and re-arms the moment a slot
//!   frees. The portable **single** fallback keeps the previous
//!   shape: a lightweight acceptor thread owns the only listening
//!   socket and deals accepted connections round-robin to the shards
//!   over per-shard channels, waking each target through its wake
//!   socketpair; it blocks in its own readiness backend with no
//!   polling timeout — shutdown arrives as a byte on a dedicated stop
//!   pipe;
//! * each **shard** is the paper's event loop on the pluggable
//!   readiness subsystem ([`crate::event`]): connections are
//!   registered once with an [`EventBackend`] (edge-triggered `epoll`
//!   on Linux, `poll(2)` elsewhere — [`NetConfig::backend`]) and their
//!   interest is adjusted incrementally as the [`Conn`] state machine
//!   moves (read interest while parsing, write interest only while a
//!   send is in flight, none while a helper works). The loop is
//!   written to the edge-triggered contract — drain reads to
//!   `EWOULDBLOCK`, re-arm after a voluntary yield — which is also
//!   correct under the level-triggered fallback. Each shard never
//!   touches the filesystem and owns a private
//!   [`ContentCache`](crate::cache::ContentCache) — no
//!   cross-shard locking anywhere on the request path. Every
//!   connection carries a **per-state deadline** in the shard's hashed
//!   timing wheel ([`crate::timer`], §6.4's slow-WAN-client defense):
//!   a header-read deadline from the first byte of a request
//!   ([`NetConfig::header_read_timeout`], slowloris senders), a
//!   write-progress deadline re-armed on every byte of forward
//!   progress ([`NetConfig::write_stall_timeout`], stalled readers —
//!   covering both the `writev` and `sendfile` paths), and the
//!   keep-alive idle timeout ([`NetConfig::idle_timeout`]) between
//!   requests. The wheel drives the backend's wait timeout ("next
//!   wheel tick, or block") and expires in O(expired), never by
//!   scanning the connection table;
//! * the **helper pool** is shared (disk parallelism is a global
//!   resource): a miss enqueues a job in its shard's lane of the
//!   shared `JobQueue`, and helpers pop the lanes **round-robin by
//!   shard** — a cold-cache shard flooding its lane cannot starve the
//!   other shards' disk latency. The finishing helper routes the completion
//!   back to that shard's done queue, coalescing wake-up bytes so a
//!   burst of completions costs one pipe write, not one per job. The
//!   helpers also run **cache revalidation**: a content-cache hit
//!   older than [`NetConfig::cache_revalidate_ttl`] parks like a miss
//!   while a helper re-stats the file (open+`fstat`, no read) — a
//!   matching (length, mtime) restarts the TTL clock and serves the
//!   waiters from memory (`revalidations`), a mismatch evicts the
//!   stale entry and reloads (`stale_evicted`), so a file edited in
//!   place stops being served — and 304-validated — from stale bytes
//!   within the TTL;
//! * the send path is **two-tier and zero-copy at both tiers**: small
//!   bodies are queued as their cached header and body segments and
//!   transmitted with a single gathered `writev(2)` (see
//!   [`crate::writev`]), with partial-write resumption tracked across
//!   segment boundaries; bodies above
//!   [`NetConfig::sendfile_threshold_bytes`] never enter the content
//!   cache at all — the helper hands the shard an open fd, the shard
//!   sends the header with `writev` and the body with `sendfile(2)`
//!   (see [`crate::sendfile`]) straight from the kernel page cache,
//!   resuming partial sends from the same per-connection state.
//!
//! With `event_loops = 1` the behavior is byte-identical to the
//! original single-loop server; with N shards the same architecture
//! simply runs N times, the way per-core executor designs scale a
//! uniprocessor event loop.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::config::NetConfig;
use crate::conn::machine::{sync_deadline, Conn};
use crate::conn::{ConnIo, ConnState, Done, Drive, Expiry, HelperJob, HelperPort, ShardCore};
use crate::event::{new_backend, BackendChoice, BackendKind, Event, EventBackend, Interest};
use crate::lifecycle::{LifecycleShared, PHASE_DRAINING, PHASE_STOPPING};
use crate::sendfile::send_file;
use crate::sock::{self, AcceptModeKind};
use crate::stats::{AccessLogWriter, ServerStats, ShardStats};
use crate::timer::TimerWheel;
use crate::writev::writev_fd;

/// Per-shard connection cap, enforced on the reuseport accept path as
/// **local backpressure**: a shard at its cap drops its listener's
/// read interest (new connections queue in the kernel backlog or hash
/// to other shards) and re-arms the moment a slot frees.
const MAX_CONNS_PER_SHARD: usize = 8192;

/// Event-loop stall watchdog threshold: a loop iteration whose
/// **non-wait** time (accept + read + respond + completions + timers)
/// exceeds this counts as a `loop_stalls` event, and the
/// `loop_stall_max_us` gauge tracks the high-water mark either way.
/// This is the direct probe for the one pathology AMPED exists to
/// prevent — a blocked event loop.
const LOOP_STALL_THRESHOLD: Duration = Duration::from_millis(100);

/// A connection over the real transport: the sans-IO state machine
/// ([`crate::conn::machine::Conn`]) bound to a nonblocking socket.
type NetConn = Conn<SockIo>;

/// The real transport behind [`ConnIo`], for the shards and the MT
/// server alike: a nonblocking `TcpStream`, with gathered writes via
/// `writev(2)` and large bodies via `sendfile(2)` against shared
/// `Arc<File>` handles.
pub(crate) struct SockIo {
    pub(crate) stream: TcpStream,
}

impl ConnIo for SockIo {
    type FileRef = Arc<File>;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        writev_fd(self.stream.as_raw_fd(), bufs)
    }

    fn sendfile(&mut self, file: &Arc<File>, offset: &mut u64, max: u64) -> io::Result<usize> {
        send_file(self.stream.as_raw_fd(), file, offset, max)
    }
}

/// Handle to a running server; dropping it does **not** stop the
/// server — call [`Server::stop`] (drain with a short grace),
/// [`Server::drain`] (graceful, bounded by
/// [`NetConfig::drain_timeout`]), or [`Server::stop_now`] (immediate).
///
/// # Lifecycle
///
/// ```text
///            SIGHUP: reload_docroot() — connections undisturbed
///               ┌───┐
///               ▼   │
///  ┌─────────────────┐  drain()/SIGTERM   ┌──────────────┐  all conns done
///  │     serving     │ ─────────────────► │   draining   │ ─────┬─────────► exited
///  └─────────────────┘                    └──────────────┘      │
///               │                               │ drain_timeout │
///               │ stop_now()/SIGINT             ▼               │
///               └─────────────────────────► exited ◄────────────┘
/// ```
///
/// Draining shards quiesce their listeners (reuseport) or the
/// acceptor stops (single mode), idle keep-alive connections are
/// closed at once, and everything mid-request — in-flight `sendfile`
/// bodies, pipelined keep-alive bursts — is served to completion or
/// the deadline. For zero-downtime restarts, hand the listener set to
/// the next generation first (see [`crate::handoff`] and
/// [`Server::handoff_listeners`]), start it with
/// [`Server::start_inherited`], then drain this one: the kernel
/// sockets (and their accept backlogs) survive the switch, in both
/// accept modes.
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    backend: BackendKind,
    accept_mode: AcceptModeKind,
    /// Accept-path stop flag (the acceptor thread and the shared
    /// accept loop); shards take their orders from `lifecycle`.
    shutdown: Arc<AtomicBool>,
    lifecycle: Arc<LifecycleShared>,
    drain_timeout: Duration,
    /// Duplicates of every listening socket this server accepts from
    /// (plus any extras inherited from a previous generation), held
    /// for handoff: passing these to the next generation keeps the
    /// kernel sockets — and their backlogs — alive across the switch.
    /// Dropped when the server handle is consumed, so a plain
    /// stop/drain still releases the port.
    handoff: Vec<TcpListener>,
    shard_wakes: Vec<WakeHandle>,
    /// `Some` only in single-acceptor mode; reuseport shards are woken
    /// for shutdown through their ordinary wake pipes.
    acceptor_stop: Option<UnixStream>,
    jobs: Arc<JobQueue>,
    acceptor_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    helper_threads: Vec<JoinHandle<()>>,
}

/// The write side of a shard's wake socketpair, with a coalescing
/// flag: a producer writes the wake byte only when it is the first to
/// make the shard's work queues non-empty since the shard last
/// drained, so a burst of completions floods neither the pipe nor the
/// shard's event loop.
#[derive(Clone)]
struct WakeHandle {
    tx: Arc<UnixStream>,
    pending: Arc<AtomicBool>,
}

impl WakeHandle {
    fn new(tx: UnixStream) -> Self {
        WakeHandle {
            tx: Arc::new(tx),
            pending: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Wakes the shard unless a wake is already pending.
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&*self.tx).write_all(b".");
        }
    }

    /// Unconditional wake (shutdown path — must never be elided).
    fn wake_force(&self) {
        let _ = (&*self.tx).write_all(b"q");
    }
}

/// One queued unit of helper work: the protocol core's [`HelperJob`]
/// plus the driver-side routing tag — which shard's done queue the
/// completion goes back to.
struct Job {
    /// Which shard's done queue the completion routes back to.
    shard: usize,
    job: HelperJob,
}

/// The real [`HelperPort`]. Each filesystem job first runs on the
/// shard in the executor's nowait mode ([`crate::fsjob::exec_job_nowait`]):
/// AMPED's residency test, answered by the kernel. A job whose path
/// and bytes are cached finishes on the spot and its completion waits
/// in `finished` for the driver; a job that would block — and every
/// dynamic job — is wrapped with the shard's routing tag and pushed
/// into that shard's lane of the shared [`JobQueue`].
struct PoolPort {
    jobs: Arc<JobQueue>,
    shard: usize,
    /// Completions of jobs finished on the shard, applied by
    /// [`complete_inline`] right after the drive that submitted them.
    finished: Vec<Done<Arc<File>>>,
}

impl HelperPort for PoolPort {
    fn submit(&mut self, job: HelperJob) {
        if let Some(data) = crate::fsjob::exec_job_nowait(&job) {
            self.finished.push(Done {
                path: job.path,
                data,
                epoch: job.epoch,
                token: job.token,
            });
            return;
        }
        self.jobs.push(Job {
            shard: self.shard,
            job,
        });
    }
}

/// The shared helper-pool queue: one FIFO lane per shard, popped
/// **round-robin by shard**. A single global FIFO let one cold-cache
/// shard fill the queue and make every other shard's misses wait
/// behind its backlog; rotating over lanes bounds any shard's
/// head-of-line damage to one job per rotation while preserving FIFO
/// order within a shard.
struct JobQueue {
    lanes: Mutex<JobLanes>,
    ready: Condvar,
}

struct JobLanes {
    queues: Vec<VecDeque<Job>>,
    /// Next lane to serve; advances past each lane that yields a job.
    cursor: usize,
    queued: usize,
    closed: bool,
}

impl JobQueue {
    fn new(n_shards: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            lanes: Mutex::new(JobLanes {
                queues: (0..n_shards).map(|_| VecDeque::new()).collect(),
                cursor: 0,
                queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    fn push(&self, job: Job) {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        if lanes.closed {
            return;
        }
        let lane = job.shard;
        lanes.queues[lane].push_back(job);
        lanes.queued += 1;
        drop(lanes);
        self.ready.notify_one();
    }

    /// Blocks for the next job in shard-rotation order; `None` once
    /// the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = pop_round_robin(&mut lanes) {
                return Some(job);
            }
            if lanes.closed {
                return None;
            }
            lanes = self.ready.wait(lanes).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every blocked helper; subsequent pops drain then end.
    fn close(&self) {
        self.lanes.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// Takes the next job starting at the rotation cursor, advancing the
/// cursor past the lane served so consecutive pops visit lanes fairly.
fn pop_round_robin(lanes: &mut JobLanes) -> Option<Job> {
    if lanes.queued == 0 {
        return None;
    }
    let n = lanes.queues.len();
    for k in 0..n {
        let lane = (lanes.cursor + k) % n;
        if let Some(job) = lanes.queues[lane].pop_front() {
            lanes.cursor = (lane + 1) % n;
            lanes.queued -= 1;
            return Some(job);
        }
    }
    None
}

/// Token for the shard's wake pipe (never a valid connection token:
/// connection tokens carry a slot in the high half, and slot 2^32-1
/// with fd 2^32-1 cannot occur).
const WAKE_TOKEN: u64 = u64::MAX;

/// Token for a shard's own `SO_REUSEPORT` listener — the slot half is
/// 2^32-1, which a real connection slot can never reach, so it can
/// never collide with a connection token (nor with [`WAKE_TOKEN`],
/// whose fd half differs).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Packs a connection's identity into an event token: slot index in
/// the high 32 bits, descriptor number in the low 32. The fd half lets
/// the loop reject stale events after a slot is recycled — the same
/// guard the old poll loop kept via its parallel fd array.
fn conn_token(slot: usize, fd: RawFd) -> u64 {
    ((slot as u64) << 32) | (fd as u32 as u64)
}

fn token_slot(token: u64) -> usize {
    (token >> 32) as usize
}

fn token_fd(token: u64) -> RawFd {
    token as u32 as RawFd
}

impl Server {
    /// Binds `addr` and starts the event-loop shards, the shared
    /// helper pool and — in single-acceptor mode only — the acceptor
    /// thread. In reuseport mode every shard owns its own
    /// `SO_REUSEPORT` listener, registered in that shard's event
    /// backend before its thread exists.
    pub fn start(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Server> {
        let req_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Server::start_impl(Some(req_addr), Vec::new(), cfg)
    }

    /// Starts a server on listening sockets inherited from a previous
    /// generation (see [`crate::handoff`]) instead of binding fresh
    /// ones — the kernel sockets, and every connection queued in
    /// their backlogs, carry over from the old generation, so the
    /// switch drops nothing even in the `Single`/non-reuseport mode
    /// where a same-port rebind is impossible.
    ///
    /// In single mode the first inherited listener serves; in
    /// reuseport mode the inherited set is dealt to the shards in
    /// order, and if there are fewer listeners than shards the
    /// remainder bind fresh `SO_REUSEPORT` siblings on the same port.
    /// Inherited listeners beyond what the accept path needs are not
    /// closed — they stay in this server's handoff set
    /// ([`Server::handoff_listeners`]), because closing the last
    /// duplicate of a listening socket RSTs its queued connections;
    /// still, matching `event_loops` across generations is the
    /// clean configuration.
    pub fn start_inherited(cfg: NetConfig, inherited: Vec<TcpListener>) -> io::Result<Server> {
        if inherited.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "start_inherited requires at least one listener",
            ));
        }
        Server::start_impl(None, inherited, cfg)
    }

    fn start_impl(
        req_addr: Option<SocketAddr>,
        inherited: Vec<TcpListener>,
        cfg: NetConfig,
    ) -> io::Result<Server> {
        cfg.validate_for_start()?;
        let accept_mode = sock::resolve_accept_mode(cfg.accept_mode);
        let shutdown = Arc::new(AtomicBool::new(false));
        let lifecycle = Arc::new(LifecycleShared::new());
        let n_shards = cfg.event_loops;
        let backend = crate::event::resolve(cfg.backend);

        // Inherited fds came in via SCM_RIGHTS as dups of the old
        // generation's listeners; dup shares the open file
        // description, so they are already nonblocking — asserted
        // here anyway, because a blocking listener would wedge a
        // whole shard on one spurious readiness event.
        for l in &inherited {
            l.set_nonblocking(true)?;
        }
        let mut inherited = inherited.into_iter();

        // All listeners are bound (or adopted) before any thread
        // exists, so an unbindable port is a clean start() error. In
        // reuseport mode the first bind fixes the port (addr may
        // carry port 0) and the remaining shards bind the resolved
        // address.
        let (addr, single_listener, shard_listeners) = match accept_mode {
            AcceptModeKind::Single => {
                let l = match inherited.next() {
                    Some(l) => l,
                    None => sock::bind_listener(req_addr.expect("addr or listeners"), false)?,
                };
                let bound = l.local_addr()?;
                (bound, Some(l), Vec::new())
            }
            AcceptModeKind::ReusePort => {
                let first = match inherited.next() {
                    Some(l) => l,
                    None => sock::bind_listener(req_addr.expect("addr or listeners"), true)?,
                };
                let bound = first.local_addr()?;
                let mut listeners = vec![first];
                for _ in 1..n_shards {
                    listeners.push(match inherited.next() {
                        Some(l) => l,
                        // Fewer inherited listeners than shards: the
                        // rest bind fresh reuseport siblings (the
                        // inherited sockets carry SO_REUSEPORT, so
                        // the shared bind is permitted).
                        None => sock::bind_listener(bound, true)?,
                    });
                }
                (bound, None, listeners)
            }
        };

        // The handoff set: one duplicate of every listener the accept
        // path uses, plus inherited extras (closing the last dup of a
        // listening socket would RST its queued connections — extras
        // ride along to the next generation instead).
        let mut handoff = Vec::new();
        for l in single_listener.iter().chain(shard_listeners.iter()) {
            handoff.push(l.try_clone()?);
        }
        handoff.extend(inherited);
        let mut shard_listeners = shard_listeners.into_iter();

        let shard_stats: Vec<Arc<ShardStats>> = (0..n_shards)
            .map(|_| Arc::new(ShardStats::default()))
            .collect();
        let stats = Arc::new(ServerStats::new(shard_stats.clone()));

        // One shared helper queue with per-shard lanes; per-shard done
        // queues and wake pipes routing completions back. The conn
        // channels exist only in single-acceptor mode — reuseport
        // shards accept for themselves, so there is no dealing hop and
        // no wake byte per accepted connection.
        let jobs = JobQueue::new(n_shards);
        let mut conn_txs = Vec::with_capacity(n_shards);
        let mut done_txs = Vec::with_capacity(n_shards);
        let mut shard_wakes = Vec::with_capacity(n_shards);
        let mut shard_threads = Vec::with_capacity(n_shards);
        let mut shard_setups = Vec::with_capacity(n_shards);
        for shard_id in 0..n_shards {
            let conn_rx = if accept_mode == AcceptModeKind::Single {
                let (conn_tx, conn_rx) = unbounded::<TcpStream>();
                conn_txs.push(conn_tx);
                Some(conn_rx)
            } else {
                None
            };
            let (done_tx, done_rx) = unbounded::<Done<Arc<File>>>();
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            let wake = WakeHandle::new(wake_tx);
            done_txs.push(done_tx);
            shard_wakes.push(wake.clone());
            shard_setups.push((shard_id, conn_rx, done_rx, wake_rx, wake));
        }

        // The dynamic tier's worker pool, shared by every helper
        // thread (spawning is lazy — a server with no dynamic_prefix
        // never forks anything).
        let workers = Arc::new(crate::appworker::WorkerPool::new(
            cfg.dynamic_command
                .clone()
                .unwrap_or_else(crate::appworker::WorkerPool::default_command),
        ));
        let mut helper_threads = Vec::new();
        for i in 0..cfg.helpers {
            let queue = Arc::clone(&jobs);
            let txs = done_txs.clone();
            let wakes = shard_wakes.clone();
            let pool = Arc::clone(&workers);
            let helper_stats = shard_stats.clone();
            helper_threads.push(
                std::thread::Builder::new()
                    .name(format!("flash-helper-{i}"))
                    .spawn(move || helper_main(queue, txs, wakes, pool, helper_stats))?,
            );
        }
        drop(done_txs);

        // Each shard gets an equal slice of the cache budget: private
        // caches mean zero lock traffic at the cost of N-way
        // duplication of the hottest entries.
        //
        // Everything fallible from the first shard spawn onward runs
        // inside this labeled block: once any shard thread exists, a
        // later failure must tear the spawned ones down (below) rather
        // than `?` straight out — an abandoned shard would otherwise
        // keep its SO_REUSEPORT listener bound for the process
        // lifetime and spin on its dead wake pipe.
        let shard_cache_bytes = (cfg.cache_bytes / n_shards as u64).max(1);
        let setup: io::Result<(Option<UnixStream>, Option<JoinHandle<()>>)> = 'setup: {
            for (shard_id, conn_rx, done_rx, wake_rx, wake) in shard_setups {
                // The backend is created and the wake pipe (and, in
                // reuseport mode, this shard's listener) registered
                // HERE so a failure (epoll watch limits, fd
                // exhaustion) aborts start() with an error instead of
                // leaving a silently dead shard.
                let mut shard_backend = new_backend(cfg.backend);
                if let Err(e) =
                    shard_backend.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
                {
                    break 'setup Err(e);
                }
                let listener = shard_listeners.next();
                if let Some(l) = &listener {
                    if let Err(e) =
                        shard_backend.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    {
                        break 'setup Err(e);
                    }
                }
                let mut core = ShardCore::new(
                    shard_id,
                    shard_cache_bytes,
                    cfg.proto(),
                    Arc::clone(&shard_stats[shard_id]),
                );
                // Every shard can see its siblings' counters, so a
                // `/.flash/metrics` scrape answered by any one shard
                // reports the whole server.
                core.export = shard_stats.clone();
                let ctx = ShardCtx {
                    core,
                    port: PoolPort {
                        jobs: Arc::clone(&jobs),
                        shard: shard_id,
                        finished: Vec::new(),
                    },
                    cfg: cfg.clone(),
                    live_conns: 0,
                };
                let lifecycle2 = Arc::clone(&lifecycle);
                let spawned = std::thread::Builder::new()
                    .name(format!("flash-shard-{shard_id}"))
                    .spawn(move || {
                        shard_loop(
                            ctx,
                            conn_rx,
                            done_rx,
                            wake_rx,
                            wake,
                            listener,
                            shard_backend,
                            lifecycle2,
                        )
                    });
                match spawned {
                    Ok(t) => shard_threads.push(t),
                    Err(e) => break 'setup Err(e),
                }
            }

            match single_listener {
                None => Ok((None, None)),
                Some(listener) => {
                    let (acceptor_stop, stop_rx) = match UnixStream::pair() {
                        Ok(pair) => pair,
                        Err(e) => break 'setup Err(e),
                    };
                    // Same principle: listener + stop pipe registered
                    // before the thread exists, so a deaf acceptor is a
                    // start() error.
                    let accept_backend =
                        match prepare_accept_backend(cfg.backend, &listener, &stop_rx) {
                            Ok(b) => b,
                            Err(e) => break 'setup Err(e),
                        };
                    let shutdown2 = Arc::clone(&shutdown);
                    let accept_stats = shard_stats.clone();
                    let acceptor_wakes = shard_wakes.clone();
                    let spawned = std::thread::Builder::new()
                        .name("flash-acceptor".into())
                        .spawn(move || {
                            let mut dealer = ShardDealer {
                                conn_txs,
                                wakes: acceptor_wakes,
                                stats: accept_stats,
                                next: 0,
                            };
                            run_accept_loop(&listener, accept_backend, &shutdown2, &mut dealer);
                            drop(stop_rx); // keep the read side alive until exit
                        });
                    match spawned {
                        Ok(t) => Ok((Some(acceptor_stop), Some(t))),
                        Err(e) => break 'setup Err(e),
                    }
                }
            }
        };
        let (acceptor_stop, acceptor_thread) = match setup {
            Ok(v) => v,
            Err(e) => {
                // Partial start: stop and join every thread spawned so
                // far, exactly like stop_now() — the per-shard
                // listeners close with their loops, so the port is
                // released before the error is returned.
                lifecycle.stop_now();
                shutdown.store(true, Ordering::SeqCst);
                for wake in &shard_wakes {
                    wake.wake_force();
                }
                for t in shard_threads {
                    let _ = t.join();
                }
                jobs.close();
                for t in helper_threads {
                    let _ = t.join();
                }
                return Err(e);
            }
        };

        Ok(Server {
            addr,
            stats,
            backend,
            accept_mode,
            shutdown,
            lifecycle,
            drain_timeout: cfg.drain_timeout,
            handoff,
            shard_wakes,
            acceptor_stop,
            jobs,
            acceptor_thread,
            shard_threads,
            helper_threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters, aggregated over shards on read.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The readiness backend this server resolved to at start.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The accept-path mode this server resolved to at start.
    pub fn accept_mode(&self) -> AcceptModeKind {
        self.accept_mode
    }

    /// The handoff set: duplicates of every listening socket this
    /// server accepts from. Send these to the next generation
    /// ([`crate::handoff::send_listeners`]) before draining this one —
    /// the kernel sockets and their accept backlogs then survive the
    /// generation switch.
    pub fn handoff_listeners(&self) -> &[TcpListener] {
        &self.handoff
    }

    /// Grace period [`Server::stop`] allows in-flight responses: long
    /// enough for any response already being written to go out whole
    /// on a healthy link, short enough that tests and tools calling
    /// `stop()` stay snappy.
    const STOP_GRACE: Duration = Duration::from_secs(1);

    /// Drains gracefully, bounded by [`NetConfig::drain_timeout`]:
    /// accepting stops everywhere, idle keep-alive connections are
    /// closed at once, connections mid-request — including in-flight
    /// `sendfile` bodies and pipelined keep-alive bursts already
    /// buffered — are served to completion, and each shard exits when
    /// its last connection finishes (or the deadline severs the rest).
    /// This is the SIGTERM order in the lifecycle diagram above.
    pub fn drain(self) {
        let grace = self.drain_timeout;
        self.drain_for(grace);
    }

    /// [`Server::drain`] with an explicit grace bound.
    pub fn drain_for(mut self, grace: Duration) {
        self.lifecycle.begin_drain(Instant::now() + grace);
        // This generation's claim on the port ends now: the handoff
        // dups close here (and each shard closes its own listener as
        // it observes the drain). A next generation that already
        // received inherited dups keeps the kernel sockets — and
        // their accept backlogs — alive; without one, a fresh
        // `SO_REUSEPORT` bind fully owns the port while we drain
        // instead of sharing the hash group with sockets nobody is
        // accepting from.
        self.handoff.clear();
        self.halt_accept_and_join();
    }

    /// Stops the server through the drain path with a short bounded
    /// grace (min of [`NetConfig::drain_timeout`] and 1 s): a response
    /// already being written goes out whole instead of being truncated
    /// mid-body, idle connections close immediately, and anything
    /// slower than the grace is severed. Tests that need today's
    /// instant teardown use [`Server::stop_now`].
    pub fn stop(self) {
        let grace = self.drain_timeout.min(Self::STOP_GRACE);
        self.drain_for(grace);
    }

    /// Stops immediately, severing in-flight connections — the
    /// SIGINT order, and the pre-drain `stop()` behavior.
    pub fn stop_now(mut self) {
        self.lifecycle.stop_now();
        self.halt_accept_and_join();
    }

    /// Publishes a new document root: every shard swaps its config
    /// and flushes its content cache between drives — in-flight
    /// requests finish undisturbed, the next request on every
    /// connection (including currently open keep-alives) is served
    /// from the new root. This is the SIGHUP order; completions from
    /// jobs dispatched before the swap are served to their waiters
    /// but not cached (epoch-checked), so pre-reload bytes cannot
    /// poison the post-reload cache.
    pub fn reload_docroot(&self, docroot: impl Into<PathBuf>) {
        self.lifecycle.publish_reload(docroot.into());
        for wake in &self.shard_wakes {
            wake.wake();
        }
    }

    /// Asks every shard to reopen its access-log file at the
    /// configured path — the logrotate handshake: rename the file,
    /// send SIGHUP (or call this), and the shards close the renamed
    /// inode and append to a fresh one. Records are batched per loop
    /// iteration and written with a single `O_APPEND` write each, so
    /// no line is lost or torn across the swap. A no-op unless
    /// [`NetConfig::access_log_path`] is set.
    pub fn rotate_access_logs(&self) {
        self.lifecycle.rotate_logs();
        for wake in &self.shard_wakes {
            wake.wake();
        }
    }

    /// Wakes everything and joins all threads. Every listener — the
    /// acceptor's or the per-shard reuseport set — is owned by the
    /// thread it serves and closed before that thread is joined, and
    /// the handoff duplicates drop with `self`, so when the caller
    /// returns the port is fully released and rebindable (unless a
    /// next generation holds inherited duplicates — the point of
    /// handoff).
    fn halt_accept_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The acceptor blocks with no timeout; its stop pipe is the
        // only thing that can wake it.
        if let Some(stop) = &self.acceptor_stop {
            let _ = (&*stop).write_all(b"q");
        }
        for wake in &self.shard_wakes {
            wake.wake_force();
        }
        if let Some(t) = self.acceptor_thread.take() {
            let _ = t.join();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        // Shards are gone — no producer remains; release the helpers.
        self.jobs.close();
        for t in self.helper_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Token for an accept loop's listener registration.
const ACCEPT_LISTENER_TOKEN: u64 = 0;
/// Token for an accept loop's stop pipe.
const ACCEPT_STOP_TOKEN: u64 = 1;

/// Creates an accept loop's readiness backend with the listener and
/// stop pipe already registered — called on the *starting* thread so a
/// registration failure surfaces as a start error rather than a
/// silently deaf accept thread.
pub(crate) fn prepare_accept_backend(
    choice: BackendChoice,
    listener: &TcpListener,
    stop_rx: &UnixStream,
) -> io::Result<Box<dyn EventBackend>> {
    let mut backend = new_backend(choice);
    stop_rx.set_nonblocking(true)?;
    backend.register(listener.as_raw_fd(), ACCEPT_LISTENER_TOKEN, Interest::READ)?;
    backend.register(stop_rx.as_raw_fd(), ACCEPT_STOP_TOKEN, Interest::READ)?;
    Ok(backend)
}

/// What an accept loop does with each connection (and between drains);
/// the loop mechanics — wait, drain, retry — are shared between the
/// AMPED acceptor (deal to shards) and the MT server (spawn a worker).
pub(crate) trait AcceptSink {
    /// Called once per accepted connection.
    fn on_conn(&mut self, stream: TcpStream);
    /// Called once per wait/drain cycle (worker reaping and the like).
    fn after_drain(&mut self) {}
}

/// The accept loop over a prepared backend (see
/// [`prepare_accept_backend`]): blocks with an infinite timeout — the
/// stop pipe is the shutdown signal, so no polling interval is burned
/// while idle and shutdown latency is one pipe write, not a timeout
/// expiry — and drains accepts to `EWOULDBLOCK` per readiness cycle.
/// An accept failure other than `EWOULDBLOCK` (EMFILE/ENFILE under fd
/// exhaustion) bounds the next wait to a short retry instead: the
/// readiness edge is consumed but connections may still be queued, and
/// an edge-triggered backend reports each arrival only once.
pub(crate) fn run_accept_loop(
    listener: &TcpListener,
    mut backend: Box<dyn EventBackend>,
    shutdown: &AtomicBool,
    sink: &mut dyn AcceptSink,
) {
    let mut events: Vec<Event> = Vec::new();
    let mut retry_accept = false;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let timeout = if retry_accept { 10 } else { -1 };
        if backend.wait(&mut events, timeout).is_err() {
            continue;
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        if events.iter().any(|e| e.token == ACCEPT_LISTENER_TOKEN) || retry_accept {
            retry_accept = false;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => sink.on_conn(stream),
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        retry_accept = true;
                        break;
                    }
                }
            }
        }
        sink.after_drain();
    }
}

/// The AMPED acceptor's sink: deals accepted connections round-robin
/// to the shards, waking each target through its wake pipe.
struct ShardDealer {
    conn_txs: Vec<Sender<TcpStream>>,
    wakes: Vec<WakeHandle>,
    stats: Vec<Arc<ShardStats>>,
    next: usize,
}

impl AcceptSink for ShardDealer {
    fn on_conn(&mut self, stream: TcpStream) {
        if sock::apply_conn_options(&stream).is_err() {
            return;
        }
        if self.conn_txs[self.next].send(stream).is_ok() {
            self.stats[self.next]
                .accepted
                .fetch_add(1, Ordering::Relaxed);
            self.wakes[self.next].wake();
        }
        self.next = (self.next + 1) % self.conn_txs.len();
    }
}

/// Shared helper pool: pops jobs and hands each to the shared
/// mechanical executor ([`crate::fsjob`]), routing the completion back
/// to the shard that requested it. No tier or variant policy lives
/// here — the job carries it all.
fn helper_main(
    jobs: Arc<JobQueue>,
    done_txs: Vec<Sender<Done<Arc<File>>>>,
    wakes: Vec<WakeHandle>,
    workers: Arc<crate::appworker::WorkerPool>,
    stats: Vec<Arc<ShardStats>>,
) {
    // `pop` rotates over the per-shard lanes; `None` means the server
    // closed the queue at shutdown.
    while let Some(Job { shard, job }) = jobs.pop() {
        // A job whose last waiter was reaped while it sat in the queue
        // needs no disk work and no completion: its pending entry is
        // already gone, so a Done would die on token mismatch anyway.
        if job.is_cancelled() {
            continue;
        }
        // Dynamic jobs are multi-event streams the single-shot
        // filesystem executor cannot express: the worker exchange runs
        // here, on this helper thread, emitting one completion per
        // frame under the job's single token.
        if job.kind == crate::conn::JobKind::Dynamic {
            let tx = &done_txs[shard];
            let wake = &wakes[shard];
            let retired = crate::appworker::run_job(&workers, &job, &mut |ev| {
                if tx
                    .send(Done {
                        path: job.path.clone(),
                        data: crate::conn::DoneData::Dynamic(ev),
                        epoch: job.epoch,
                        token: job.token,
                    })
                    .is_ok()
                {
                    wake.wake();
                }
            });
            if retired > 0 {
                stats[shard]
                    .worker_respawns
                    .fetch_add(retired, Ordering::Relaxed);
            }
            continue;
        }
        let data = crate::fsjob::exec_job(&job);
        if done_txs[shard]
            .send(Done {
                path: job.path,
                data,
                epoch: job.epoch,
                token: job.token,
            })
            .is_err()
        {
            continue;
        }
        wakes[shard].wake();
    }
}

/// One shard's driver-side state: the transport-agnostic protocol
/// core plus everything only this driver owns — the helper-pool port,
/// the full (driver-level) config, and the accept gate's odometer.
struct ShardCtx {
    core: ShardCore,
    port: PoolPort,
    cfg: NetConfig,
    /// Connections currently occupying slots — the accept gate's
    /// odometer: at [`MAX_CONNS_PER_SHARD`] the shard's listener
    /// interest is dropped; any close below the cap re-arms it.
    live_conns: usize,
}

/// Bounded retry cadence while a shard's listener is throttled with
/// room available (the EMFILE/ENFILE case): the re-arm is driven by
/// the wait timeout rather than an event, because fd headroom can
/// reappear without any readiness edge on this shard's descriptors.
const ACCEPT_RETRY_MS: i32 = 50;

/// One event-loop shard: the paper's AMPED loop on the pluggable
/// readiness backend, over this shard's private connection set.
///
/// Written to the edge-triggered contract (see [`crate::event`]):
/// every drive runs the connection until `EWOULDBLOCK`, interest is
/// reconciled with the state machine after each drive, and a voluntary
/// yield (the `sendfile` fairness budget) re-arms the descriptor so
/// the consumed writability edge is redelivered.
///
/// In reuseport mode (`listener` is `Some`) the shard also owns a
/// `SO_REUSEPORT` listener under [`LISTENER_TOKEN`]: accepts drain to
/// `EWOULDBLOCK` like any other read source, and **backpressure is
/// local** — at the connection cap (or on `EMFILE`/`ENFILE`) the
/// listener's read interest is dropped, so pending connections stay
/// in the kernel backlog (or hash to other shards), and the interest
/// is re-armed the moment a slot frees. The re-arm leans on the
/// backend contract that `modify` redelivers a still-true readiness
/// condition, so a backlog that filled while throttled surfaces as a
/// fresh event.
#[allow(clippy::too_many_arguments)]
fn shard_loop(
    mut ctx: ShardCtx,
    // `Some` only in single-acceptor mode (the dealing channel).
    conn_rx: Option<Receiver<TcpStream>>,
    done_rx: Receiver<Done<Arc<File>>>,
    mut wake_rx: UnixStream,
    wake: WakeHandle,
    // `Some` only in reuseport mode: this shard's own listener, owned
    // (and therefore closed) by this loop — dropped at drain entry or
    // on return, before Server::stop's join observes the thread gone,
    // so the port is free once stop() returns.
    mut listener: Option<TcpListener>,
    // Created by Server::start with the wake pipe already registered,
    // so backend failures abort startup instead of killing one shard.
    mut backend: Box<dyn EventBackend>,
    lifecycle: Arc<LifecycleShared>,
) {
    let mut conns: Vec<Option<NetConn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut completed: Vec<usize> = Vec::new();
    // Per-state deadlines live in a hashed timing wheel keyed by the
    // same slot+fd tokens the event backend uses. The tick is an
    // eighth of the smallest configured timeout, so rounding (≤1 tick)
    // plus wait cadence (≤1 tick) keeps expiry within ~1.25× the
    // configured deadline; expiry work is O(expired), never a scan of
    // the connection table.
    let mut wheel = TimerWheel::new(ctx.cfg.deadline_tick());
    let mut expired: Vec<u64> = Vec::new();
    // Whether the listener's READ interest is currently armed in the
    // backend (registered armed by Server::start).
    let mut listener_armed = listener.is_some();
    // The drain deadline, captured once when the shard observes the
    // draining phase (begin_drain stores it before flipping the
    // phase, so it is always visible here).
    let mut drain_deadline: Option<Instant> = None;
    // Flight-recorder state: the access-log writer (None unless
    // configured) and the rotation generation last applied.
    let mut access_log = ctx.cfg.access_log_path.clone().map(AccessLogWriter::open);
    let mut log_gen_seen = lifecycle.log_gen();

    loop {
        match lifecycle.phase() {
            PHASE_STOPPING => {
                if ctx.core.draining {
                    ctx.core.stats.draining.store(0, Ordering::Relaxed);
                }
                if let Some(w) = access_log.as_mut() {
                    w.drain(&mut ctx.core.access_log);
                }
                return;
            }
            PHASE_DRAINING if !ctx.core.draining => {
                drain_deadline = lifecycle.drain_deadline();
                // The listener CLOSES here, not merely quiesces: an
                // open reuseport socket keeps its place in the
                // kernel's hash group even with no one accepting, so
                // keeping it would blackhole the connections hashed to
                // it. A next generation holding inherited handoff dups
                // keeps the kernel socket (and its backlog) alive;
                // without one, fresh binds now fully own the port.
                if let Some(l) = listener.take() {
                    let _ = backend.deregister(l.as_raw_fd());
                }
                listener_armed = false;
                enter_drain(&mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
            _ => {}
        }
        if ctx.core.draining
            && (ctx.live_conns == 0 || drain_deadline.is_some_and(|d| Instant::now() >= d))
        {
            // Drained clean — or the deadline severs whatever is left
            // (conns drop with the loop's locals on return).
            ctx.core.stats.draining.store(0, Ordering::Relaxed);
            if let Some(w) = access_log.as_mut() {
                w.drain(&mut ctx.core.access_log);
            }
            return;
        }
        // Apply a published SIGHUP reload the shard has not seen yet.
        // The swap happens between drives, so in-flight requests
        // finish undisturbed and the next request on every connection
        // — including open keep-alives — sees the new root.
        let generation = lifecycle.reload_gen();
        if generation != ctx.core.epoch {
            ctx.core
                .apply_reload(lifecycle.reload_docroot(), generation);
            // A docroot reload is also a log boundary: reopen so a
            // rotation bundled with the SIGHUP takes effect here too.
            if let Some(w) = access_log.as_mut() {
                w.reopen();
            }
        }
        // Apply a pending access-log rotation (logrotate renamed the
        // file, then asked us to reopen the path).
        let log_gen = lifecycle.log_gen();
        if log_gen != log_gen_seen {
            log_gen_seen = log_gen;
            if let Some(w) = access_log.as_mut() {
                w.reopen();
            }
        }
        // Sleep until the next wheel tick could expire something; with
        // nothing armed, block — new work always arrives as a wake
        // byte or a readiness event. A throttled listener with room to
        // re-arm (the EMFILE case: headroom can return without any
        // local readiness edge) bounds the wait to a retry cadence on
        // top of whatever the wheel asks for.
        let mut wait_ms = wheel.next_timeout_ms(Instant::now()).unwrap_or(-1);
        if listener.is_some()
            && !listener_armed
            && !ctx.core.draining
            && ctx.live_conns < MAX_CONNS_PER_SHARD
            && !(0..=ACCEPT_RETRY_MS).contains(&wait_ms)
        {
            wait_ms = ACCEPT_RETRY_MS;
        }
        // While draining, never sleep past the drain deadline — the
        // severing check above must run when it lands even if every
        // remaining connection is quietly mid-transfer.
        if let Some(d) = drain_deadline {
            let left = d
                .saturating_duration_since(Instant::now())
                .as_millis()
                .min(i32::MAX as u128) as i32;
            let left = left.max(1);
            if wait_ms < 0 || wait_ms > left {
                wait_ms = left;
            }
        }
        let wait_begin = Instant::now();
        if backend.wait(&mut events, wait_ms).is_err() {
            continue;
        }
        // Everything from here to the bottom of the loop is non-wait
        // time — the span the stall watchdog measures, phase by phase.
        let loop_start = Instant::now();
        ctx.core.stats.phase_wait_us.fetch_add(
            loop_start.duration_since(wait_begin).as_micros() as u64,
            Ordering::Relaxed,
        );
        let mut mark = loop_start;
        ctx.core.stats.wait_calls.fetch_add(1, Ordering::Relaxed);
        ctx.core
            .stats
            .wait_events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let mut accept_ready = false;
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            // Drain the pipe completely (edge-triggered: this event
            // may be the only notification for any number of bytes).
            let mut sink = [0u8; 256];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            // Clear the coalescing flag *before* draining the queues:
            // anything enqueued after this point writes a fresh wake
            // byte, so completions cannot be lost.
            wake.pending.store(false, Ordering::Release);
            if let Some(conn_rx) = &conn_rx {
                while let Ok(stream) = conn_rx.try_recv() {
                    admit_conn(stream, &mut conns, &mut ctx, &mut *backend, &mut wheel);
                }
            }
            lap(&ctx.core.stats.phase_accept_us, &mut mark);
            completed.clear();
            while let Ok(done) = done_rx.try_recv() {
                ctx.core.complete_job(
                    done,
                    &mut conns,
                    &mut completed,
                    &mut ctx.port,
                    Instant::now(),
                );
            }
            // A revalidation that found its entry stale requeued a load,
            // which may itself have finished on the shard.
            complete_inline(&mut ctx, &mut conns, &mut completed);
            lap(&ctx.core.stats.phase_completions_us, &mut mark);
            // Completions flipped their waiters to Writing with the
            // socket unarmed; drive them now — the socket is almost
            // always writable, so the common case finishes here
            // without ever arming write interest.
            for idx in completed.drain(..) {
                drive_and_sync(idx, &mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
            lap(&ctx.core.stats.phase_respond_us, &mut mark);
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            if ev.token == LISTENER_TOKEN {
                // Drained below, after existing connections are
                // serviced and expiries may have freed slots.
                accept_ready = true;
                continue;
            }
            let idx = token_slot(ev.token);
            let fd = token_fd(ev.token);
            // The wake-pipe drain above can close a connection and let
            // its slot be reused by a new stream — with a recycled
            // kernel fd number, even. The event in hand describes the
            // *old* registration, so only drive the slot if it still
            // holds the exact fd the token was minted with.
            let live = conns
                .get(idx)
                .and_then(|c| c.as_ref())
                .is_some_and(|c| c.io.stream.as_raw_fd() == fd);
            if live {
                drive_and_sync(idx, &mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
        }
        lap(&ctx.core.stats.phase_read_us, &mut mark);
        // Expire deadlines last: anything the drives above just
        // re-armed is already accounted for (single-threaded, so the
        // wheel is exactly consistent with the connection table here).
        wheel.expire(Instant::now(), &mut expired);
        for token in expired.drain(..) {
            let idx = token_slot(token);
            let fd = token_fd(token);
            // Same stale-token guard as readiness events: only expire
            // the slot if it still holds the connection the deadline
            // was armed for.
            let live = conns
                .get(idx)
                .and_then(|c| c.as_ref())
                .is_some_and(|c| c.io.stream.as_raw_fd() == fd);
            if !live {
                continue;
            }
            match ctx.core.expire_deadline(idx, &mut conns, Instant::now()) {
                Expiry::Respond => {
                    drive_and_sync(idx, &mut conns, &mut ctx, &mut *backend, &mut wheel)
                }
                Expiry::Closed => release_slot(idx, fd, &mut ctx, &mut *backend, &mut wheel),
                Expiry::Stale => {}
            }
        }
        lap(&ctx.core.stats.phase_timers_us, &mut mark);
        // Accept last: the drives and expiries above may have freed
        // slots, so the gate decision below sees this iteration's
        // final occupancy.
        // (`listener` is already `None` by drain entry, so a draining
        // shard can neither re-arm nor accept here.)
        if let Some(l) = &listener {
            if !listener_armed && ctx.live_conns < MAX_CONNS_PER_SHARD {
                // Re-arm: `modify` redelivers a still-pending backlog
                // as a fresh readiness event (ET contract), and the
                // level-triggered backend re-reports it on the next
                // wait — either way the accepts resume without a new
                // connection having to arrive.
                if backend
                    .modify(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    .is_ok()
                {
                    listener_armed = true;
                }
            } else if accept_ready && listener_armed {
                listener_armed = drain_accepts(l, &mut conns, &mut ctx, &mut *backend, &mut wheel);
            }
        }
        lap(&ctx.core.stats.phase_accept_us, &mut mark);
        // Flush this iteration's access records in one append, then
        // close the watchdog ledger: everything since the wait
        // returned was time the event loop spent NOT listening — the
        // one quantity AMPED exists to keep small.
        if let Some(w) = access_log.as_mut() {
            w.drain(&mut ctx.core.access_log);
        }
        let busy = Instant::now().duration_since(loop_start);
        ctx.core
            .stats
            .loop_stall_max_us
            .fetch_max(busy.as_micros() as u64, Ordering::Relaxed);
        if busy >= LOOP_STALL_THRESHOLD {
            ctx.core.stats.loop_stalls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Adds the time since `*mark` to `counter` and advances the mark —
/// the per-phase ledger behind the event-loop stall watchdog.
fn lap(counter: &std::sync::atomic::AtomicU64, mark: &mut Instant) {
    let now = Instant::now();
    counter.fetch_add(
        now.duration_since(*mark).as_micros() as u64,
        Ordering::Relaxed,
    );
    *mark = now;
}

/// Drains a shard's own listener to `EWOULDBLOCK` under the ET
/// contract, admitting and immediately driving each connection.
/// Stops early — dropping the listener's read interest — at the
/// shard's connection cap or on an accept failure (`EMFILE`/`ENFILE`
/// under fd exhaustion, counted as `accept_backpressure`); pending
/// connections then wait in the kernel backlog (or hash to another
/// shard's listener) until this shard re-arms. Returns whether the
/// listener interest is still armed.
fn drain_accepts(
    listener: &TcpListener,
    conns: &mut Vec<Option<NetConn>>,
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) -> bool {
    loop {
        if ctx.live_conns >= MAX_CONNS_PER_SHARD {
            return !quiesce_listener(listener, backend);
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if sock::apply_conn_options(&stream).is_err() {
                    continue;
                }
                ctx.core.stats.accepted.fetch_add(1, Ordering::Relaxed);
                admit_conn(stream, conns, ctx, backend, wheel);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            // A connection that died while queued in the backlog is
            // not backpressure — skip it and keep draining. Neither is
            // a signal landing mid-accept: retry immediately.
            Err(ref e)
                if e.kind() == io::ErrorKind::ConnectionAborted
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => {
                // EMFILE/ENFILE (or another persistent failure):
                // accepting again immediately would fail immediately.
                // Count it and back off; the shard loop retries on the
                // ACCEPT_RETRY_MS cadence and on every freed slot.
                ctx.core
                    .stats
                    .accept_backpressure
                    .fetch_add(1, Ordering::Relaxed);
                return !quiesce_listener(listener, backend);
            }
        }
    }
}

/// Drops a listener's read interest (keeping the registration).
/// Returns whether the interest was actually dropped — if the
/// `modify` itself fails the listener stays armed and accepting simply
/// retries on the next event.
fn quiesce_listener(listener: &TcpListener, backend: &mut dyn EventBackend) -> bool {
    backend
        .modify(listener.as_raw_fd(), LISTENER_TOKEN, Interest::NONE)
        .is_ok()
}

/// Flips a shard into drain: the listener's read interest is dropped
/// for good (its backlog belongs to whoever holds the handoff dup),
/// and **idle** keep-alive connections — parked between requests with
/// nothing buffered, nothing queued, and at least one response already
/// delivered — are closed at once instead of waiting out their idle
/// timeout. Everything else (mid-request, pipelined bytes buffered,
/// response in flight, or so fresh no response has been produced yet)
/// is left to finish under the drain deadline.
fn enter_drain(
    conns: &mut [Option<NetConn>],
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    ctx.core.begin_drain();
    for idx in 0..conns.len() {
        let reading = conns[idx]
            .as_ref()
            .is_some_and(|c| matches!(c.state, ConnState::Reading));
        if !reading {
            continue;
        }
        // Drive before judging: a pipelined burst already sitting in
        // the socket buffer has not reached the parser yet, and a
        // connection must not be severed with honourable requests in
        // its receive queue. The drive reads to EWOULDBLOCK and — with
        // `draining` already set — closes the connection itself after
        // its final response goes out.
        drive_and_sync(idx, conns, ctx, backend, wheel);
        let Some(conn) = conns[idx].as_ref() else {
            continue;
        };
        // Still Reading with nothing anywhere after the drive: a
        // genuinely idle keep-alive (at least one response served) —
        // close it now rather than waiting out its idle timeout. A
        // fresh connection (no response yet) keeps its grace to send
        // the request it connected for.
        let idle = matches!(conn.state, ConnState::Reading)
            && conn.parser.buffered() == 0
            && conn.out.is_empty()
            && conn.sendfile.is_none()
            && conn.progress > 0;
        if idle {
            let fd = conn.io.stream.as_raw_fd();
            ctx.core.stats.drained_conns.fetch_add(1, Ordering::Relaxed);
            close_slot(idx, fd, conns, ctx, backend, wheel);
        }
    }
}

/// Places a freshly dealt connection in a slot, registers it with the
/// backend, and drives it immediately — its request bytes are usually
/// in flight already, so waiting for the first readiness event would
/// add a wait's latency for nothing.
fn admit_conn(
    stream: TcpStream,
    conns: &mut Vec<Option<NetConn>>,
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    let fd = stream.as_raw_fd();
    let mut conn = Conn::new(SockIo { stream });
    conn.opened_at = Some(Instant::now());
    let idx = match conns.iter_mut().position(|c| c.is_none()) {
        Some(i) => {
            conns[i] = Some(conn);
            i
        }
        None => {
            conns.push(Some(conn));
            conns.len() - 1
        }
    };
    if backend
        .register(fd, conn_token(idx, fd), Interest::READ)
        .is_err()
    {
        // A connection the backend cannot watch can never progress.
        conns[idx] = None;
        return;
    }
    ctx.live_conns += 1;
    drive_and_sync(idx, conns, ctx, backend, wheel);
}

/// Drives one connection, then reconciles the backend *and* the
/// timing wheel with the result: deregisters and disarms a closed
/// connection, re-arms interest when the state machine moved, syncs
/// the per-state deadline, and forces an edge re-check after a
/// voluntary yield.
fn drive_and_sync(
    idx: usize,
    conns: &mut [Option<NetConn>],
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    let Some(fd) = conns
        .get(idx)
        .and_then(|c| c.as_ref())
        .map(|c| c.io.stream.as_raw_fd())
    else {
        return;
    };
    let mut outcome = ctx
        .core
        .drive_conn(idx, conns, &mut ctx.port, Instant::now());
    // Jobs the drive submitted that finished on the shard complete
    // now, before the deadline sync below: their waiter is served
    // without ever arming a helper-wait deadline.
    let mut woken = Vec::new();
    loop {
        complete_inline(ctx, conns, &mut woken);
        if woken.is_empty() {
            break;
        }
        for w in woken.drain(..) {
            if w == idx {
                outcome = ctx
                    .core
                    .drive_conn(idx, conns, &mut ctx.port, Instant::now());
            } else {
                drive_and_sync(w, conns, ctx, backend, wheel);
            }
        }
    }
    let token = conn_token(idx, fd);
    match conns.get(idx).and_then(|c| c.as_ref()) {
        None => release_slot(idx, fd, ctx, backend, wheel),
        Some(conn) => {
            let want = crate::conn::machine::desired_interest(&conn.state);
            if want != conn.interest {
                if backend.modify(fd, token, want).is_ok() {
                    if let Some(c) = conns[idx].as_mut() {
                        c.interest = want;
                    }
                } else {
                    // Unwatchable means unreachable: drop it (the core's
                    // close takes a just-parked waiter off its list, so
                    // the inbound completion cannot reach the slot's
                    // next occupant).
                    close_slot(idx, fd, conns, ctx, backend, wheel);
                    return;
                }
            } else if matches!(outcome, Drive::Yielded) && backend.rearm(fd, token, want).is_err() {
                // A consumed edge that cannot be re-armed is a
                // permanent stall under ET: the connection can never
                // progress, so close it rather than pin its fd and
                // slot forever.
                close_slot(idx, fd, conns, ctx, backend, wheel);
                return;
            }
            if let Some(conn) = conns[idx].as_mut() {
                sync_deadline(conn, token, &ctx.core.cfg, wheel, Instant::now());
            }
        }
    }
}

/// Feeds the completions of jobs the port finished on the shard into
/// the core, appending the connections they woke to `completed`. A
/// completion can requeue a job (a stale revalidation becomes a load),
/// so this runs until the port has nothing left.
fn complete_inline(ctx: &mut ShardCtx, conns: &mut [Option<NetConn>], completed: &mut Vec<usize>) {
    while let Some(done) = ctx.port.finished.pop() {
        ctx.core.stats.inline_jobs.fetch_add(1, Ordering::Relaxed);
        ctx.core
            .complete_job(done, conns, completed, &mut ctx.port, Instant::now());
    }
}

/// Closes a live slot from the driver side: the core's close path,
/// then the slot's registrations.
fn close_slot(
    idx: usize,
    fd: RawFd,
    conns: &mut [Option<NetConn>],
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    ctx.core.close_conn(idx, conns, Instant::now());
    release_slot(idx, fd, ctx, backend, wheel);
}

/// Drops a closed slot's registrations. Deregister even though
/// close() would eventually unhook the fd: the poll backend keeps a
/// userspace table that would otherwise hand a recycled fd number to
/// the kernel. The wheel entry must go for the same reason — the token
/// is reminted when the slot is reused.
fn release_slot(
    idx: usize,
    fd: RawFd,
    ctx: &mut ShardCtx,
    backend: &mut dyn EventBackend,
    wheel: &mut TimerWheel,
) {
    let _ = backend.deregister(fd);
    wheel.cancel(conn_token(idx, fd));
    ctx.live_conns = ctx.live_conns.saturating_sub(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Variant;
    use crate::conn::JobKind;

    #[test]
    fn conn_token_roundtrips_slot_and_fd() {
        for (slot, fd) in [(0usize, 0), (3, 17), (100_000, 1023), (1, i32::MAX)] {
            let t = conn_token(slot, fd);
            assert_eq!(token_slot(t), slot);
            assert_eq!(token_fd(t), fd);
            assert_ne!(t, WAKE_TOKEN);
        }
    }

    fn job_for(shard: usize) -> Job {
        Job {
            shard,
            job: HelperJob {
                path: format!("/{shard}"),
                fs_path: PathBuf::new(),
                kind: JobKind::Load,
                variant: Variant::Identity,
                inline_max: u64::MAX,
                epoch: 0,
                token: 0,
                cancel: Arc::new(AtomicBool::new(false)),
            },
        }
    }

    #[test]
    fn job_queue_rotates_across_shards() {
        let q = JobQueue::new(3);
        // Shard 0 floods its lane; shard 2 queues two jobs.
        for _ in 0..4 {
            q.push(job_for(0));
        }
        q.push(job_for(2));
        q.push(job_for(2));
        let mut order = Vec::new();
        {
            let mut lanes = q.lanes.lock().unwrap();
            while let Some(job) = pop_round_robin(&mut lanes) {
                order.push(job.shard);
            }
        }
        // Rotation bounds shard 0's head-of-line damage to one job per
        // visit: the starved shard is served every other pop, not
        // after the whole backlog.
        assert_eq!(order, vec![0, 2, 0, 2, 0, 0]);
    }

    #[test]
    fn job_queue_preserves_fifo_within_a_shard() {
        let q = JobQueue::new(2);
        for i in 0..3 {
            q.push(Job {
                shard: 0,
                job: HelperJob {
                    path: format!("/a{i}"),
                    fs_path: PathBuf::new(),
                    kind: JobKind::Load,
                    variant: Variant::Identity,
                    inline_max: u64::MAX,
                    epoch: 0,
                    token: i as u64,
                    cancel: Arc::new(AtomicBool::new(false)),
                },
            });
        }
        let mut lanes = q.lanes.lock().unwrap();
        let paths: Vec<String> = std::iter::from_fn(|| pop_round_robin(&mut lanes))
            .map(|j| j.job.path)
            .collect();
        assert_eq!(paths, vec!["/a0", "/a1", "/a2"]);
    }

    #[test]
    fn job_queue_close_releases_poppers() {
        let q = JobQueue::new(1);
        q.push(job_for(0));
        q.close();
        // Closed but not drained: the queued job still comes out...
        assert!(q.pop().is_some());
        // ...then pops end instead of blocking forever.
        assert!(q.pop().is_none());
        // And pushes after close are refused.
        q.push(job_for(0));
        assert!(q.pop().is_none());
    }
}
