//! Byte-boundary property test against the sans-IO protocol core: a
//! pipelined multi-request burst must produce **byte-identical
//! responses no matter where the transport splits the request stream**
//! — every TCP segmentation of the same bytes is the same
//! conversation. The old loopback tests could only sample a few split
//! points through real sockets; driving [`flash_net::conn`] directly
//! makes every split position cheap enough to test exhaustively.
//!
//! The burst compositions are drawn from a seeded
//! [`flash_simcore::SimRng`], so the exercised request mixes vary but
//! reproduce exactly.
//!
//! The same in-memory harness also pins two slot-lifecycle guarantees
//! of the core: a connection closed mid-stream leaves nothing behind
//! for its slot's next occupant, and cores sharing one cache never
//! poison it across a reload.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use flash_net::cache::{SharedCache, Variant};
use flash_net::conn::machine::{self, Conn};
use flash_net::conn::{
    ConnIo, DeadlineKind, Done, DoneData, DynEvent, Expiry, FileData, HelperJob, HelperPort,
    JobKind, LoadResult, ProtoConfig, ShardCore, ShardStats,
};
use flash_net::timer::TimerWheel;
use flash_simcore::SimRng;

/// An in-memory transport, always writable unless told to fail writes
/// with `write_err`; the response stream is captured behind an `Rc` so
/// it survives the core closing the slot.
struct TestIo {
    inbox: VecDeque<u8>,
    captured: Rc<RefCell<Vec<u8>>>,
    write_err: Option<io::ErrorKind>,
}

impl TestIo {
    fn new(captured: &Rc<RefCell<Vec<u8>>>) -> TestIo {
        TestIo {
            inbox: VecDeque::new(),
            captured: Rc::clone(captured),
            write_err: None,
        }
    }
}

impl ConnIo for TestIo {
    type FileRef = Arc<Vec<u8>>;

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
        if let Some(kind) = self.write_err {
            return Err(kind.into());
        }
        let mut out = self.captured.borrow_mut();
        let mut n = 0;
        for b in bufs {
            out.extend_from_slice(b);
            n += b.len();
        }
        Ok(n)
    }

    fn sendfile(&mut self, file: &Arc<Vec<u8>>, offset: &mut u64, max: u64) -> io::Result<usize> {
        let left = (file.len() as u64).saturating_sub(*offset);
        if left == 0 {
            return Ok(0);
        }
        let n = max.min(left);
        self.captured
            .borrow_mut()
            .extend_from_slice(&file[*offset as usize..(*offset + n) as usize]);
        *offset += n;
        Ok(n as usize)
    }
}

struct SyncPort {
    jobs: Vec<HelperJob>,
}

impl HelperPort for SyncPort {
    fn submit(&mut self, job: HelperJob) {
        self.jobs.push(job);
    }
}

/// The in-memory "disk": path → body, with the large file served
/// through the `sendfile` tier.
fn disk() -> HashMap<String, (Vec<u8>, bool)> {
    let mut d = HashMap::new();
    d.insert("/a.html".to_string(), (b"alpha body".to_vec(), false));
    d.insert(
        "/b.html".to_string(),
        (b"a longer beta body for variety".to_vec(), false),
    );
    let big: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    d.insert("/big.bin".to_string(), (big, true));
    d
}

fn exec(files: &HashMap<String, (Vec<u8>, bool)>, job: &HelperJob) -> Done<Arc<Vec<u8>>> {
    let data = match files.get(&job.path) {
        None => DoneData::Loaded(Err(io::ErrorKind::NotFound.into())),
        Some((body, large)) => {
            assert_eq!(job.kind, JobKind::Load, "TTL is disabled in this harness");
            let data = if *large {
                FileData::Fd {
                    file: Arc::new(body.clone()),
                    len: body.len() as u64,
                    mtime: Some(123_456_789),
                }
            } else {
                FileData::Bytes {
                    body: body.clone(),
                    mtime: Some(123_456_789),
                }
            };
            DoneData::Loaded(Ok(LoadResult {
                data,
                variant: Variant::Identity,
                has_gzip: false,
            }))
        }
    };
    Done {
        path: job.path.clone(),
        data,
        epoch: job.epoch,
        token: job.token,
    }
}

fn proto() -> ProtoConfig {
    ProtoConfig {
        docroot: PathBuf::from("/test"),
        idle_timeout: None,
        header_read_timeout: None,
        write_stall_timeout: None,
        helper_wait_timeout: None,
        cache_revalidate_ttl: None,
        dynamic_deadline: None,
        dynamic_prefix: None,
        sendfile_threshold: 4096,
        metrics_endpoint: false,
        access_log: false,
    }
}

fn core() -> ShardCore {
    ShardCore::new(0, 1024 * 1024, proto(), Arc::new(ShardStats::default()))
}

/// Drives the single connection to quiescence: every synchronous
/// "helper" completion is executed and delivered until no jobs remain.
fn settle(
    core: &mut ShardCore,
    conns: &mut [Option<Conn<TestIo>>],
    port: &mut SyncPort,
    files: &HashMap<String, (Vec<u8>, bool)>,
    now: Instant,
) {
    loop {
        let _ = core.drive_conn(0, conns, port, now);
        if port.jobs.is_empty() {
            return;
        }
        let jobs: Vec<_> = port.jobs.drain(..).collect();
        let mut completed = Vec::new();
        for job in jobs {
            let done = exec(files, &job);
            core.complete_job(done, conns, &mut completed, port, now);
        }
    }
}

/// Replays `burst` against a fresh core, delivered in the given
/// chunks; returns the full captured response stream.
fn replay(burst: &[u8], chunks: &[&[u8]], files: &HashMap<String, (Vec<u8>, bool)>) -> Vec<u8> {
    assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), burst.len());
    let mut core = core();
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut conns = vec![Some(Conn::new(TestIo::new(&captured)))];
    let mut port = SyncPort { jobs: Vec::new() };
    let now = Instant::now();
    let wheel = TimerWheel::new(std::time::Duration::from_millis(10));
    for chunk in chunks {
        let Some(conn) = conns[0].as_mut() else { break };
        conn.io.inbox.extend(chunk.iter().copied());
        settle(&mut core, &mut conns, &mut port, files, now);
        core.check_invariants(&conns, &wheel, |_| 0)
            .expect("invariants must hold after every chunk");
    }
    assert!(
        core.waiters.is_empty() && core.pending_jobs.is_empty(),
        "no parked state may survive a settled replay"
    );
    let out = captured.borrow().clone();
    out
}

/// The 29-byte IMF-fixdate after each `Date: ` is the response
/// stream's only wall-clock content; blank it before comparing.
fn scrub_dates(buf: &mut [u8]) {
    const PAT: &[u8] = b"Date: ";
    const VAL: usize = 29;
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

/// A seeded 3-request pipelined burst: paths and methods drawn from
/// the RNG, the last request `Connection: close`.
fn build_burst(rng: &mut SimRng) -> Vec<u8> {
    const PATHS: [&str; 4] = ["/a.html", "/b.html", "/big.bin", "/missing.html"];
    let mut burst = Vec::new();
    for i in 0..3 {
        let path = PATHS[rng.uniform(0, PATHS.len() as u64) as usize];
        let method = if rng.chance(0.25) { "HEAD" } else { "GET" };
        burst.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: t\r\n").as_bytes());
        if i == 2 {
            burst.extend_from_slice(b"Connection: close\r\n");
        }
        burst.extend_from_slice(b"\r\n");
    }
    burst
}

/// The property: for several seeded bursts, splitting the request
/// stream at **every** byte position yields responses identical to
/// the unsplit replay — partial headers, headers split mid-token,
/// pipelined requests severed across reads, all of it.
#[test]
fn every_split_position_yields_identical_responses() {
    let files = disk();
    let mut rng = SimRng::new(0xB0A7);
    for round in 0..3 {
        let burst = build_burst(&mut rng);
        let mut baseline = replay(&burst, &[&burst], &files);
        scrub_dates(&mut baseline);
        assert!(!baseline.is_empty(), "baseline produced no responses");
        for split in 1..burst.len() {
            let (head, tail) = burst.split_at(split);
            let mut got = replay(&burst, &[head, tail], &files);
            scrub_dates(&mut got);
            assert_eq!(
                got,
                baseline,
                "round {round}: split at byte {split} diverged from unsplit replay\nburst: {:?}",
                String::from_utf8_lossy(&burst)
            );
        }
    }
}

/// Sanity for the harness itself: three-way splits (two boundaries)
/// also match, on a burst that crosses every response tier.
#[test]
fn three_way_splits_match_for_mixed_tiers() {
    let files = disk();
    let burst = b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /big.bin HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /missing.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        .to_vec();
    let mut baseline = replay(&burst, &[&burst], &files);
    scrub_dates(&mut baseline);
    assert!(
        baseline.windows(4).any(|w| w == b"200 "),
        "expected a 200 in the stream"
    );
    assert!(
        baseline.windows(4).any(|w| w == b"404 "),
        "expected a 404 in the stream"
    );
    // A spread of two-boundary splits, including both inside one
    // request and across the pipelined seams.
    for (a, b) in [(1, 2), (5, 40), (33, 34), (36, 80), (70, 110)] {
        let mut got = replay(&burst, &[&burst[..a], &burst[a..b], &burst[b..]], &files);
        scrub_dates(&mut got);
        assert_eq!(got, baseline, "split at ({a}, {b}) diverged");
    }
}

/// Feeds one worker event for `job` back through the core and drives
/// the connection it lands on.
fn deliver(
    core: &mut ShardCore,
    conns: &mut [Option<Conn<TestIo>>],
    port: &mut SyncPort,
    job: &HelperJob,
    ev: DynEvent,
) {
    let now = Instant::now();
    let done = Done {
        path: job.path.clone(),
        data: DoneData::Dynamic(ev),
        epoch: job.epoch,
        token: job.token,
    };
    let mut completed = Vec::new();
    core.complete_job(done, conns, &mut completed, port, now);
    for idx in completed {
        let _ = core.drive_conn(idx, conns, port, now);
    }
}

/// A client lost while its chunked stream is open must take its waiter
/// registration with it, whichever way the loss is noticed: a flush
/// that fails, or a flush stalled past the write-progress deadline.
/// The close cancels the worker job, and the worker's next chunk dies
/// at the token gate instead of reaching the connection that reuses
/// slot 0.
#[test]
fn closed_stream_never_leaks_into_the_recycled_slot() {
    for write_err in [io::ErrorKind::BrokenPipe, io::ErrorKind::WouldBlock] {
        let cfg = ProtoConfig {
            dynamic_prefix: Some("/app/".to_string()),
            write_stall_timeout: Some(std::time::Duration::from_secs(1)),
            ..proto()
        };
        let mut core = ShardCore::new(0, 1024 * 1024, cfg, Arc::new(ShardStats::default()));
        let mut wheel = TimerWheel::new(std::time::Duration::from_millis(10));
        let mut port = SyncPort { jobs: Vec::new() };
        let first = Rc::new(RefCell::new(Vec::new()));
        let mut conns = vec![Some(Conn::new(TestIo::new(&first)))];
        conns[0]
            .as_mut()
            .unwrap()
            .io
            .inbox
            .extend(b"GET /app/a HTTP/1.1\r\nHost: t\r\n\r\n".iter().copied());
        let _ = core.drive_conn(0, &mut conns, &mut port, Instant::now());
        let job = port.jobs.pop().expect("a dynamic job is dispatched");
        assert_eq!(job.kind, JobKind::Dynamic);

        let chunk = |s: &str| DynEvent::Chunk(Bytes::from(s.as_bytes().to_vec()));
        deliver(&mut core, &mut conns, &mut port, &job, chunk("A-part-1"));
        assert!(first.borrow().ends_with(b"8\r\nA-part-1\r\n"));

        // The client goes away: the next chunk's flush fails outright,
        // or stalls until its write-progress deadline fires.
        conns[0].as_mut().unwrap().io.write_err = Some(write_err);
        deliver(&mut core, &mut conns, &mut port, &job, chunk("A-part-2"));
        if let Some(conn) = conns[0].as_mut() {
            let now = Instant::now();
            machine::sync_deadline(conn, 0, &core.cfg, &mut wheel, now);
            assert_eq!(conn.deadline, DeadlineKind::WriteStall);
            assert_eq!(core.expire_deadline(0, &mut conns, now), Expiry::Closed);
            wheel.cancel(0);
        }
        assert!(conns[0].is_none(), "{write_err:?}: the slot is closed");
        assert!(
            job.is_cancelled(),
            "{write_err:?}: the close cancels the job"
        );
        core.check_invariants(&conns, &wheel, |_| 0)
            .expect("no waiter may outlive its connection");

        // A new connection takes slot 0; the worker's late output must
        // never reach it.
        let second = Rc::new(RefCell::new(Vec::new()));
        conns[0] = Some(Conn::new(TestIo::new(&second)));
        deliver(&mut core, &mut conns, &mut port, &job, chunk("A-part-3"));
        deliver(
            &mut core,
            &mut conns,
            &mut port,
            &job,
            DynEvent::End { clean: true },
        );
        assert!(
            second.borrow().is_empty(),
            "{write_err:?}: recycled slot received {:?}",
            String::from_utf8_lossy(&second.borrow())
        );
        core.check_invariants(&conns, &wheel, |_| 0)
            .expect("invariants hold for the slot's new occupant");
    }
}

/// Two cores on one shared cache, as the MT server's threads run: core
/// A applies reload generation 1 while core B, still at epoch 0, has a
/// load in flight that was dispatched under the old docroot. B's waiter
/// is still served — its request predates the reload — but the
/// pre-reload bytes must not land in the flushed cache.
#[test]
fn shared_cache_refuses_inserts_from_a_core_behind_the_reload() {
    let files = disk();
    let cache = SharedCache::new(1024 * 1024);
    let stats = Arc::new(ShardStats::default());
    let mut a = ShardCore::with_cache(0, cache.clone(), proto(), Arc::clone(&stats));
    let mut b = ShardCore::with_cache(1, cache.clone(), proto(), stats);
    let wheel = TimerWheel::new(std::time::Duration::from_millis(10));
    let mut port = SyncPort { jobs: Vec::new() };
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut conns = vec![Some(Conn::new(TestIo::new(&captured)))];
    let now = Instant::now();
    conns[0]
        .as_mut()
        .unwrap()
        .io
        .inbox
        .extend(b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n".iter().copied());
    let _ = b.drive_conn(0, &mut conns, &mut port, now);
    let job = port.jobs.pop().expect("the miss dispatches a load");
    assert_eq!((job.kind, job.epoch), (JobKind::Load, 0));

    a.apply_reload(None, 1);
    assert_eq!(b.epoch, 0, "B has not observed the reload");

    let mut completed = Vec::new();
    b.complete_job(
        exec(&files, &job),
        &mut conns,
        &mut completed,
        &mut port,
        now,
    );
    assert_eq!(completed, vec![0]);
    let _ = b.drive_conn(0, &mut conns, &mut port, now);
    let out = captured.borrow().clone();
    assert!(out.starts_with(b"HTTP/1.1 200 OK"), "B's waiter is served");
    assert!(out.ends_with(b"alpha body"));
    b.check_invariants(&conns, &wheel, |_| 0).unwrap();

    let locked = cache.lock();
    assert_eq!(locked.generation, 1);
    assert!(
        locked.cache.peek("/a.html").is_none(),
        "a pre-reload load must not poison the post-reload cache"
    );
}
