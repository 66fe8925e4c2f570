//! The MT variant on real sockets: one blocking thread per connection.
//!
//! The §3.2 architecture for comparison with the AMPED server in
//! [`crate::server`]: each thread handles one connection with blocking
//! I/O, the threads share the content cache behind a lock, and the OS
//! provides all the overlap — simpler than the event loop, the exact
//! trade the paper discusses, at the cost of per-connection threads and
//! lock traffic.
//!
//! MT is not a second HTTP implementation. Each connection thread runs
//! the sans-IO protocol core ([`crate::conn`]) the AMPED shards run,
//! over a one-slot connection table, and the architecture's difference
//! is expressed entirely as driver choices:
//!
//! * **A thread that blocks**: the shards' nonblocking socket
//!   transport, with the thread parked in `poll(2)` on its one socket
//!   between drives, for at most 200 ms or until the next deadline
//!   tick. The kernel, not an event loop, multiplexes the connections.
//! * **An inline helper port**: the thread runs every job the core
//!   submits itself — filesystem jobs through [`fsjob::exec_job`],
//!   worker exchanges through [`appworker::run_job_until`] — and feeds
//!   each completion straight back to the core. Only this connection
//!   stalls on the disk or the worker.
//! * **One shared cache**: every thread's core holds a clone of one
//!   [`SharedCache`], whose generation-checked inserts keep a thread
//!   that has not applied a reload yet from poisoning it.
//!
//! Deadlines are the core's: [`sync_deadline`] arms the idle,
//! header-read, write-stall and dynamic-wait classes on a one-slot
//! [`TimerWheel`], and [`ShardCore::expire_deadline`] fires them with
//! the same counters and actions as on the shards. The dynamic
//! silence deadline fires from the worker exchange's stop predicate.
//!
//! The lifecycle semantics match the AMPED server's too (see
//! [`crate::lifecycle`]): [`MtServer::drain`] stops accepting and lets
//! every thread finish its in-flight request (idle keep-alives close
//! within their 200 ms poll cadence; a watchdog severs anything
//! slower than the grace), [`MtServer::reload_docroot`] swaps the
//! served root and flushes the shared cache without dropping a
//! connection, and [`MtServer::stop_now`] is the immediate teardown.
//! [`MtServer::start_inherited`] adopts a handed-off listener so even
//! the thread-per-connection comparison server restarts without
//! resetting a queued connection.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::appworker::{self, WorkerPool};
use crate::cache::SharedCache;
use crate::config::NetConfig;
use crate::conn::machine::{desired_interest, sync_deadline, Conn};
use crate::conn::{
    ConnState, Done, DoneData, HelperJob, HelperPort, JobKind, ProtoConfig, ShardCore, ShardStats,
};
use crate::event::Interest;
use crate::fsjob;
use crate::lifecycle::{LifecycleShared, PHASE_DRAINING, PHASE_STOPPING};
use crate::poll::{poll_fds, PollFd, POLL_IN, POLL_OUT};
use crate::server::{prepare_accept_backend, run_accept_loop, AcceptSink, SockIo};
use crate::sock;
use crate::stats::{AccessLogWriter, ServerStats};
use crate::timer::TimerWheel;

/// The longest a connection thread blocks in `poll(2)` before it looks
/// at the lifecycle again (drain, stop, reload, log rotation).
const POLL_MS: i32 = 200;

/// The timing-wheel key of a thread's one connection (slot 0).
const TOKEN: u64 = 0;

/// The MT access log: one writer shared by every connection thread,
/// each batch appended under the lock as a single `write_all` — whole
/// lines, never fragments. `gen_seen` is the last rotation generation
/// any thread applied (the first to observe a bump reopens).
struct MtLog {
    writer: Mutex<AccessLogWriter>,
    gen_seen: AtomicU64,
}

/// What every connection thread shares.
struct Shared {
    proto: ProtoConfig,
    tick: Duration,
    cache: SharedCache,
    lifecycle: Arc<LifecycleShared>,
    stats: Arc<ShardStats>,
    log: Option<MtLog>,
    /// One application-worker pool for every connection thread — the
    /// MT twin of the AMPED helper pool's workers.
    pool: WorkerPool,
}

/// Handle to a running MT server.
pub struct MtServer {
    addr: SocketAddr,
    /// Accept-path stop flag: flipping it (plus a stop byte) ends the
    /// accept loop; connection threads are governed by `lifecycle`.
    accept_stop: Arc<AtomicBool>,
    lifecycle: Arc<LifecycleShared>,
    drain_timeout: Duration,
    handoff: Vec<TcpListener>,
    stop_tx: UnixStream,
    accept_thread: Option<JoinHandle<()>>,
    /// One "shard" of counters and histograms — the same registry the
    /// AMPED server exports, so both architectures are compared with
    /// identical instruments.
    stats: ServerStats,
}

impl MtServer {
    /// Binds `addr` and starts the accept loop. The listener comes
    /// from the shared socket-options helper ([`crate::sock`]) — same
    /// nonblocking + `SO_REUSEADDR` setup as the AMPED listeners, one
    /// accept path's options can never drift from the other's.
    pub fn start(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<MtServer> {
        cfg.validate_for_start()?;
        let req_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let listener = sock::bind_listener(req_addr, false)?;
        Self::start_impl(listener, cfg)
    }

    /// Starts on a listening socket inherited from a previous
    /// generation (see [`crate::handoff`]): the kernel socket — and
    /// its accept backlog — survives the generation switch.
    pub fn start_inherited(cfg: NetConfig, listener: TcpListener) -> io::Result<MtServer> {
        cfg.validate_for_start()?;
        listener.set_nonblocking(true)?;
        Self::start_impl(listener, cfg)
    }

    fn start_impl(listener: TcpListener, cfg: NetConfig) -> io::Result<MtServer> {
        let addr = listener.local_addr()?;
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept_stop2 = Arc::clone(&accept_stop);
        let lifecycle = Arc::new(LifecycleShared::new());
        // The handoff dup, kept so a next generation can inherit the
        // live kernel socket while this one drains.
        let handoff = vec![listener.try_clone()?];
        // Shutdown wakes the accept loop through this pipe, so the
        // loop blocks in its readiness backend with no timeout instead
        // of polling on an arbitrary interval.
        let (stop_tx, stop_rx) = UnixStream::pair()?;
        // Listener + stop pipe registered before the thread exists, so
        // a backend that cannot watch them is a start error, not a
        // silently deaf accept thread (same machinery as the AMPED
        // acceptor — the loop itself is shared).
        let backend = prepare_accept_backend(cfg.backend, &listener, &stop_rx)?;
        let drain_timeout = cfg.drain_timeout;
        let shard = Arc::new(ShardStats::default());
        let shared = Arc::new(Shared {
            proto: cfg.proto(),
            tick: cfg.deadline_tick(),
            cache: SharedCache::new(cfg.cache_bytes),
            lifecycle: Arc::clone(&lifecycle),
            stats: Arc::clone(&shard),
            log: cfg.access_log_path.clone().map(|p| MtLog {
                writer: Mutex::new(AccessLogWriter::open(p)),
                gen_seen: AtomicU64::new(0),
            }),
            pool: WorkerPool::new(
                cfg.dynamic_command
                    .clone()
                    .unwrap_or_else(WorkerPool::default_command),
            ),
        });
        let accept_thread = std::thread::Builder::new()
            .name("flash-mt-accept".into())
            .spawn(move || {
                let mut spawner = ConnSpawner {
                    threads: Vec::new(),
                    shared,
                };
                run_accept_loop(&listener, backend, &accept_stop2, &mut spawner);
                drop(stop_rx); // keep the read side alive until exit
                for h in spawner.threads {
                    let _ = h.join();
                }
            })?;
        Ok(MtServer {
            addr,
            accept_stop,
            lifecycle,
            drain_timeout,
            handoff,
            stop_tx,
            accept_thread: Some(accept_thread),
            stats: ServerStats::new(vec![shard]),
        })
    }

    /// The server's counters and latency histograms — the same
    /// registry-backed [`ServerStats`] surface the AMPED server
    /// exposes (one shard here: every connection thread writes the same
    /// atomics).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handoff set: a duplicate of the listening socket, for
    /// sending to the next generation (see [`crate::handoff`]).
    pub fn handoff_listeners(&self) -> &[TcpListener] {
        &self.handoff
    }

    /// See [`crate::server::Server::stop`]: the grace the drain-based
    /// `stop()` allows in-flight responses.
    const STOP_GRACE: Duration = Duration::from_secs(1);

    /// Drains gracefully, bounded by [`NetConfig::drain_timeout`]:
    /// accepting stops, connection threads finish their in-flight
    /// requests and close (idle keep-alives within their poll cadence),
    /// and a watchdog severs anything still running when the grace
    /// expires.
    pub fn drain(self) {
        let grace = self.drain_timeout;
        self.drain_for(grace);
    }

    /// [`MtServer::drain`] with an explicit grace bound.
    pub fn drain_for(mut self, grace: Duration) {
        self.lifecycle.begin_drain(Instant::now() + grace);
        // The deadline has no event loop to enforce it here — a
        // watchdog escalates to stop-now when the grace expires, so
        // the thread joins below cannot hang past it. It waits on a
        // channel rather than sleeping the full grace: when the drain
        // completes early the sender drops and the watchdog wakes and
        // exits at once, leaving no thread pinning the lifecycle Arc
        // for the rest of the grace.
        let lifecycle = Arc::clone(&self.lifecycle);
        let (drained_tx, drained_rx) = std::sync::mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if drained_rx.recv_timeout(grace) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                lifecycle.stop_now();
            }
        });
        // Release this generation's claim on the port: the handoff
        // dups close now (a next generation holding inherited dups
        // keeps the kernel socket alive), and the accept thread's
        // listener closes as it exits in the join below — so the
        // address is rebindable while the threads drain.
        self.handoff.clear();
        self.halt_accept_and_join();
        drop(drained_tx);
        let _ = watchdog.join();
    }

    /// Stops through the drain path with a short bounded grace (min of
    /// [`NetConfig::drain_timeout`] and 1 s), so a response already
    /// being written goes out whole. [`MtServer::stop_now`] is the
    /// immediate teardown.
    pub fn stop(self) {
        let grace = self.drain_timeout.min(Self::STOP_GRACE);
        self.drain_for(grace);
    }

    /// Stops immediately: threads notice within their 200 ms poll
    /// cadence and return without finishing keep-alive conversations.
    pub fn stop_now(mut self) {
        self.lifecycle.stop_now();
        self.halt_accept_and_join();
    }

    /// Publishes a new document root: each thread swaps its docroot at
    /// the next loop turn and the shared cache is flushed exactly once
    /// (generation-checked under its lock). No connection is dropped.
    pub fn reload_docroot(&self, docroot: impl Into<std::path::PathBuf>) {
        self.lifecycle.publish_reload(docroot.into());
    }

    /// Asks the threads to reopen the access log at its configured
    /// path (the logrotate handshake — see
    /// [`crate::server::Server::rotate_access_logs`]). Applied by the
    /// first thread to observe the bump, within its 200 ms poll
    /// cadence. A no-op unless [`NetConfig::access_log_path`] is set.
    pub fn rotate_access_logs(&self) {
        self.lifecycle.rotate_logs();
    }

    fn halt_accept_and_join(&mut self) {
        self.accept_stop.store(true, Ordering::SeqCst);
        let _ = (&self.stop_tx).write_all(b"q");
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// The MT accept sink: one blocking thread per connection, finished
/// threads reaped between drains.
struct ConnSpawner {
    threads: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl AcceptSink for ConnSpawner {
    fn on_conn(&mut self, stream: TcpStream) {
        if sock::apply_conn_options(&stream).is_err() {
            return;
        }
        self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("flash-mt-conn".into())
            .spawn(move || serve_conn(stream, shared))
        {
            self.threads.push(h);
        }
    }

    fn after_drain(&mut self) {
        self.threads.retain(|h| !h.is_finished());
    }
}

/// One connection thread: the core over the connection's socket,
/// until the connection closes.
fn serve_conn(stream: TcpStream, shared: Arc<Shared>) {
    let mut conn = Conn::new(SockIo { stream });
    conn.opened_at = Some(Instant::now());
    // The core starts at epoch 0 with generation 0's docroot, however
    // many reloads have been published since: the first loop turn
    // applies any pending reload before a request is served.
    let core = ShardCore::with_cache(
        0,
        shared.cache.clone(),
        shared.proto.clone(),
        Arc::clone(&shared.stats),
    );
    let mut mt = MtConn {
        core,
        conns: [Some(conn)],
        jobs: InlinePort(Vec::new()),
        wheel: TimerWheel::new(shared.tick),
        expired: Vec::new(),
        shared,
    };
    mt.serve();
}

/// The inline helper port: submitted jobs wait here until the drive
/// that submitted them returns, then run on the connection thread.
struct InlinePort(Vec<HelperJob>);

impl HelperPort for InlinePort {
    fn submit(&mut self, job: HelperJob) {
        self.0.push(job);
    }
}

/// One connection thread's driver state: a one-slot instance of the
/// protocol core, its inline jobs, and its one-slot deadline wheel.
struct MtConn {
    core: ShardCore,
    conns: [Option<Conn<SockIo>>; 1],
    jobs: InlinePort,
    wheel: TimerWheel,
    expired: Vec<u64>,
    shared: Arc<Shared>,
}

impl MtConn {
    fn serve(&mut self) {
        while self.conns[0].is_some() {
            self.observe_lifecycle();
            self.drive();
            self.run_jobs();
            // Draining and idle between requests (the drive read the
            // socket dry): close. A fresh connection keeps its grace to
            // send the request it connected for.
            let idle = self.conns[0].as_ref().is_some_and(|c| {
                matches!(c.state, ConnState::Reading) && c.parser.buffered() == 0 && c.progress > 0
            });
            if self.core.draining && idle {
                self.shared
                    .stats
                    .drained_conns
                    .fetch_add(1, Ordering::Relaxed);
                self.core.close_conn(0, &mut self.conns, Instant::now());
            }
            self.wait();
        }
        self.write_log();
    }

    /// Blocks until the socket is ready for what the connection's state
    /// needs, the deadline wheel's next tick, or the lifecycle poll
    /// interval — whichever comes first.
    fn wait(&self) {
        let Some(conn) = self.conns[0].as_ref() else {
            return;
        };
        let events = match desired_interest(&conn.state) {
            Interest::READ => POLL_IN,
            Interest::WRITE => POLL_OUT,
            _ => return,
        };
        let mut timeout = POLL_MS;
        if let Some(ms) = self.wheel.next_timeout_ms(Instant::now()) {
            timeout = timeout.min(ms);
        }
        let mut fds = [PollFd::new(conn.io.stream.as_raw_fd(), events)];
        let _ = poll_fds(&mut fds, timeout);
    }

    /// Applies what the lifecycle published since the last turn: a
    /// stop closes the connection, a drain puts the core in drain mode,
    /// a reload swaps the docroot and flushes the shared cache (once,
    /// by whichever thread gets there first), and a log rotation
    /// reopens the shared writer (likewise once).
    fn observe_lifecycle(&mut self) {
        let lifecycle = &self.shared.lifecycle;
        match lifecycle.phase() {
            PHASE_STOPPING => {
                self.core.close_conn(0, &mut self.conns, Instant::now());
                return;
            }
            PHASE_DRAINING if !self.core.draining => self.core.begin_drain(),
            _ => {}
        }
        let generation = lifecycle.reload_gen();
        if generation != self.core.epoch {
            self.core
                .apply_reload(lifecycle.reload_docroot(), generation);
        }
        if let Some(log) = &self.shared.log {
            let g = lifecycle.log_gen();
            if log.gen_seen.swap(g, Ordering::AcqRel) != g {
                log.writer.lock().reopen();
            }
        }
    }

    /// One drive of the connection, then the deadline bookkeeping every
    /// drive is followed by.
    fn drive(&mut self) {
        self.core
            .drive_conn(0, &mut self.conns, &mut self.jobs, Instant::now());
        self.settle();
    }

    /// Arms the deadline class of the connection's current state, fires
    /// it through the core if it is due, and appends the access records
    /// the core staged. A `504` queued by a dynamic-wait expiry goes out
    /// on the next drive.
    fn settle(&mut self) {
        let now = Instant::now();
        if let Some(conn) = self.conns[0].as_mut() {
            sync_deadline(conn, TOKEN, &self.core.cfg, &mut self.wheel, now);
        }
        self.wheel.expire(now, &mut self.expired);
        if !self.expired.is_empty() {
            let _ = self.core.expire_deadline(0, &mut self.conns, now);
        }
        self.write_log();
    }

    /// Runs the jobs the last drive submitted, on this thread, feeding
    /// each completion back to the core. A revalidation that finds the
    /// file changed submits a load, which runs in the same loop.
    fn run_jobs(&mut self) {
        while let Some(job) = self.jobs.0.pop() {
            if job.is_cancelled() {
                continue;
            }
            if job.kind == JobKind::Dynamic {
                self.run_dynamic(&job);
                continue;
            }
            let data = fsjob::exec_job(&job);
            self.complete(Done {
                path: job.path,
                data,
                epoch: job.epoch,
                token: job.token,
            });
        }
    }

    fn complete(&mut self, done: Done<Arc<File>>) {
        let mut completed = Vec::new();
        self.core.complete_job(
            done,
            &mut self.conns,
            &mut completed,
            &mut self.jobs,
            Instant::now(),
        );
    }

    /// Runs one worker exchange on this thread, relaying each event to
    /// the client as it arrives: the core renders it, and the thread
    /// writes it out before reading the worker again. The exchange stops
    /// once the job is cancelled — by the dynamic-wait deadline, which
    /// the stop predicate fires through the core (a `504` before the
    /// first chunk, a sever after), or by the client vanishing, whose
    /// close takes the waiter off its list.
    fn run_dynamic(&mut self, job: &HelperJob) {
        let shared = Arc::clone(&self.shared);
        let this = RefCell::new(self);
        let stop = || {
            this.borrow_mut().settle();
            job.is_cancelled()
        };
        let retired = appworker::run_job_until(&shared.pool, job, &stop, &mut |ev| {
            let mut this = this.borrow_mut();
            this.complete(Done {
                path: job.path.clone(),
                data: DoneData::Dynamic(ev),
                epoch: job.epoch,
                token: job.token,
            });
            this.drive();
            while this.conns[0]
                .as_ref()
                .is_some_and(|c| matches!(c.state, ConnState::Writing))
            {
                this.wait();
                this.drive();
            }
        });
        if retired > 0 {
            shared
                .stats
                .worker_respawns
                .fetch_add(retired, Ordering::Relaxed);
        }
    }

    fn write_log(&mut self) {
        if let Some(log) = &self.shared.log {
            if !self.core.access_log.is_empty() {
                log.writer.lock().drain(&mut self.core.access_log);
            }
        }
    }
}
