//! Layer replays for the traced run: timed calls into single layers'
//! public functions over the workload's own inputs (its request bytes,
//! its files, its path sequence, its dynamic bodies). Each replay is one
//! span; its metric is the mean cost of one call.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flash_http::request::ParseStatus;
use flash_http::{chunked, mime, HeaderExtras, Request, RequestParser, ResponseHeader, Status};
use flash_net::appworker::{self, WorkerPool};
use flash_net::cache::{ContentCache, Entry, Lookup, Variant};
use flash_net::conn::machine::Conn;
use flash_net::conn::plan::plan_response;
use flash_net::conn::{
    ConnIo, Done, HelperJob, HelperPort, JobKind, ProtoConfig, RequestCond, Resource, ShardCore,
    ShardStats,
};
use flash_net::fsjob;
use flash_net::stats::Tier;

use crate::loadgen;
use crate::site::{self, Kind, Req, Sequence};
use crate::spans::Spans;

/// Requests replayed per layer.
const N_REQ: usize = 20_000;
/// Files loaded through the helper executor.
const N_LOAD: usize = 300;
/// Dynamic exchanges run through the worker pool.
const N_DYN: usize = 300;

/// The server's default body tier split (bodies above it use sendfile).
const SENDFILE_THRESHOLD: u64 = 256 * 1024;

#[derive(Default, Debug)]
pub struct Replays {
    pub parse_ns_per_req: f64,
    pub render_ns_per_resp: f64,
    pub chunk_ns_per_kib: f64,
    pub core_ns_per_req: f64,
    pub plan_ns_per_req: f64,
    pub cache_lookup_ns: f64,
    pub cache_insert_ns: f64,
    pub fsjob_load_us: f64,
    pub run_job_us: f64,
}

fn per(total: Duration, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total.as_nanos() as f64 / n as f64
    }
}

/// An always-writable in-memory transport with no kernel behind it:
/// writes and sendfile windows are accepted whole and only counted.
struct MemIo {
    inbox: VecDeque<u8>,
}

impl ConnIo for MemIo {
    type FileRef = Arc<File>;

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.inbox.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.inbox.len());
        for (slot, b) in buf.iter_mut().zip(self.inbox.drain(..n)) {
            *slot = b;
        }
        Ok(n)
    }

    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    fn sendfile(&mut self, _file: &Arc<File>, offset: &mut u64, max: u64) -> io::Result<usize> {
        *offset += max;
        Ok(max as usize)
    }
}

/// Collects submitted jobs; the replay executes them synchronously.
struct SyncPort {
    jobs: Vec<HelperJob>,
}

impl HelperPort for SyncPort {
    fn submit(&mut self, job: HelperJob) {
        self.jobs.push(job);
    }
}

fn static_reqs(seq: &Sequence<'_>, from: u64) -> Vec<Req> {
    (from..)
        .map(|s| seq.req(s))
        .filter(|r| !matches!(r.kind, Kind::Dynamic(_)))
        .take(N_REQ)
        .collect()
}

fn job(path: String, fs_path: PathBuf, kind: JobKind, token: u64) -> HelperJob {
    HelperJob {
        path,
        fs_path,
        kind,
        variant: Variant::Identity,
        inline_max: SENDFILE_THRESHOLD,
        epoch: 0,
        token,
        cancel: Arc::new(AtomicBool::new(false)),
    }
}

/// Drives `ShardCore` over the request bytes with no kernel: a warm
/// pass fills the cache, a second pass is timed. Helper jobs run
/// synchronously through the real executor, outside the timed region.
fn core_replay(seq: &Sequence<'_>, reqs: &[Vec<u8>], cache_bytes: u64) -> f64 {
    let cfg = ProtoConfig {
        docroot: seq.site.root.clone(),
        idle_timeout: None,
        header_read_timeout: None,
        write_stall_timeout: None,
        helper_wait_timeout: None,
        cache_revalidate_ttl: None,
        sendfile_threshold: SENDFILE_THRESHOLD,
        metrics_endpoint: false,
        dynamic_prefix: None,
        dynamic_deadline: None,
        access_log: false,
    };
    let mut core = ShardCore::new(0, cache_bytes, cfg, Arc::new(ShardStats::default()));
    let mut port = SyncPort { jobs: Vec::new() };
    let mut conns: Vec<Option<Conn<MemIo>>> = vec![None];
    let mut timed = Duration::ZERO;
    for pass in 0..2 {
        let mut core_time = Duration::ZERO;
        for bytes in reqs {
            let conn = conns[0].get_or_insert_with(|| {
                Conn::new(MemIo {
                    inbox: VecDeque::new(),
                })
            });
            conn.io.inbox.extend(bytes.iter().copied());
            let now = Instant::now();
            let _ = core.drive_conn(0, &mut conns, &mut port, now);
            core_time += now.elapsed();
            while !port.jobs.is_empty() {
                let jobs: Vec<HelperJob> = port.jobs.drain(..).collect();
                for j in jobs {
                    let done = Done {
                        path: j.path.clone(),
                        data: fsjob::exec_job(&j),
                        epoch: j.epoch,
                        token: j.token,
                    };
                    let mut completed = Vec::new();
                    let t = Instant::now();
                    core.complete_job(done, &mut conns, &mut completed, &mut port, now);
                    let _ = core.drive_conn(0, &mut conns, &mut port, now);
                    core_time += t.elapsed();
                }
            }
        }
        if pass == 1 {
            timed = core_time;
        }
    }
    per(timed, reqs.len())
}

/// Runs every layer replay, one span each under `parent`.
pub fn run(
    seq: &Sequence<'_>,
    etags: &[Option<String>],
    from_seq: u64,
    worker_cmd: &[String],
    cache_bytes_per_shard: u64,
    spans: &mut Spans,
    parent: u64,
) -> Replays {
    let site = seq.site;
    let reqs = static_reqs(seq, from_seq);
    let bytes: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| loadgen::request_bytes(seq, etags, r))
        .collect();
    let mut out = Replays::default();

    // flash-http: request parsing.
    let mut parsed: Vec<Request> = Vec::with_capacity(bytes.len());
    let t = spans.time(parent, "replay.http.parse", || {
        let mut parser = RequestParser::new();
        let t = Instant::now();
        for b in &bytes {
            if let ParseStatus::Done(r) = parser.feed(std::hint::black_box(b)) {
                parsed.push(r);
            }
        }
        t.elapsed()
    });
    out.parse_ns_per_req = per(t, bytes.len());

    // flash-http: full 200 header render for each request's file.
    let t = spans.time(parent, "replay.http.render", || {
        let t = Instant::now();
        for r in &reqs {
            let f = &site.files[r.file as usize];
            let etag = flash_http::etag_value(Some(1_700_000_000), f.size, false);
            let h = ResponseHeader::build_full(
                Status::Ok,
                Some((mime::content_type(&f.path), f.size)),
                true,
                true,
                Some(1_700_000_000),
                HeaderExtras {
                    etag: Some(&etag),
                    ..HeaderExtras::default()
                },
            );
            std::hint::black_box(h);
        }
        t.elapsed()
    });
    out.render_ns_per_resp = per(t, reqs.len());

    // net::conn: the protocol core with no kernel.
    out.core_ns_per_req = spans.time(parent, "replay.conn.core", || {
        core_replay(seq, &bytes, cache_bytes_per_shard)
    });

    // net::conn::plan over cached entries of the workload's small files.
    let mut entries: HashMap<u32, Arc<Entry>> = HashMap::new();
    let mut planned = Vec::new();
    for (r, p) in reqs.iter().zip(&parsed) {
        let f = &site.files[r.file as usize];
        if f.size > SENDFILE_THRESHOLD {
            continue;
        }
        let e = entries.entry(r.file).or_insert_with(|| {
            let mut body = vec![0; f.size as usize];
            site::fill(f.key, 0, &mut body);
            Entry::build_with_mtime(&f.path, body, Some(1_700_000_000))
        });
        planned.push((Arc::clone(e), RequestCond::from_request(p), p.path.clone()));
    }
    drop(entries);
    let t = spans.time(parent, "replay.conn.plan", || {
        let stats = ShardStats::default();
        let t = Instant::now();
        for (e, cond, path) in &planned {
            let plan = plan_response::<Arc<File>>(
                &Resource::Cached(e),
                path,
                cond,
                true,
                Tier::Hit,
                &stats,
            );
            std::hint::black_box(plan);
        }
        t.elapsed()
    });
    out.plan_ns_per_req = per(t, planned.len());
    drop(planned);

    // net::cache: lookups (and inserts on miss) at the per-shard
    // capacity, in the trace's path order.
    let (lookup, n_lookup, insert, n_insert) = spans.time(parent, "replay.cache", || {
        let mut cache = ContentCache::new(cache_bytes_per_shard);
        let now = Instant::now();
        let (mut lt, mut ln, mut it, mut inn) = (Duration::ZERO, 0, Duration::ZERO, 0);
        for r in &reqs {
            let f = &site.files[r.file as usize];
            if f.size > SENDFILE_THRESHOLD {
                continue;
            }
            let t = Instant::now();
            let hit = !matches!(cache.lookup_at(&f.path, None, now), Lookup::Miss);
            lt += t.elapsed();
            ln += 1;
            if !hit {
                let mut body = vec![0; f.size as usize];
                site::fill(f.key, 0, &mut body);
                let e = Entry::build_with_mtime(&f.path, body, Some(1_700_000_000));
                let t = Instant::now();
                cache.insert_at(f.path.clone(), e, now);
                it += t.elapsed();
                inn += 1;
            }
        }
        (lt, ln, it, inn)
    });
    out.cache_lookup_ns = per(lookup, n_lookup);
    out.cache_insert_ns = per(insert, n_insert);

    // net::fsjob: the helper's load executor over distinct files.
    let mut seen = std::collections::HashSet::new();
    let jobs: Vec<HelperJob> = reqs
        .iter()
        .filter(|r| seen.insert(r.file))
        .take(N_LOAD)
        .enumerate()
        .map(|(i, r)| {
            let f = &site.files[r.file as usize];
            job(
                f.path.clone(),
                site.root.join(f.path.trim_start_matches('/')),
                JobKind::Load,
                i as u64 + 1,
            )
        })
        .collect();
    let t = spans.time(parent, "replay.fsjob.load", || {
        let t = Instant::now();
        for j in &jobs {
            std::hint::black_box(fsjob::exec_load(j).is_ok());
        }
        t.elapsed()
    });
    out.fsjob_load_us = per(t, jobs.len()) / 1e3;

    if seq.mix.has_dynamic() {
        // net::appworker: full exchanges with the benchmark's worker.
        let ids: Vec<u32> = (0..N_DYN as u64)
            .map(|i| (site::mix2(site.seed, i) % site::DYN_IDS) as u32)
            .collect();
        let t = spans.time(parent, "replay.appworker.run_job", || {
            let pool = WorkerPool::new(worker_cmd.to_vec());
            let jobs: Vec<HelperJob> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| {
                    job(
                        format!("dyn{i}"),
                        PathBuf::from(format!("/app/d{id}")),
                        JobKind::Dynamic,
                        i as u64 + 1,
                    )
                })
                .collect();
            // The first exchange spawns the worker; it is not timed.
            appworker::run_job(&pool, &jobs[0], &mut |_| {});
            let t = Instant::now();
            for j in &jobs[1..] {
                appworker::run_job(&pool, j, &mut |ev| {
                    std::hint::black_box(ev);
                });
            }
            t.elapsed()
        });
        out.run_job_us = per(t, N_DYN - 1) / 1e3;

        // flash-http: chunked encoding of the dynamic bodies as framed.
        let bodies: Vec<(Vec<u8>, usize)> = ids
            .iter()
            .map(|&id| {
                let (key, len, frames) = site::dyn_body(site.seed, id);
                let mut b = vec![0; len as usize];
                site::fill(key, 0, &mut b);
                let step = b.len().div_ceil(frames as usize);
                (b, step)
            })
            .collect();
        let kib = bodies.iter().map(|(b, _)| b.len()).sum::<usize>() as f64 / 1024.0;
        let t = spans.time(parent, "replay.http.chunked", || {
            let t = Instant::now();
            for (b, step) in &bodies {
                let frames: Vec<&[u8]> = b.chunks(*step).collect();
                std::hint::black_box(chunked::encode(&frames));
            }
            t.elapsed()
        });
        out.chunk_ns_per_kib = t.as_nanos() as f64 / kib;
    }
    out
}
