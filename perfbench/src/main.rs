//! Benchmark of record for the Flash servers: open-loop, trace-driven
//! HTTP/1.1 load against the real AMPED server over loopback, with
//! every response verified.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed (docroot, request
//! sequence, arrival schedule, dynamic mix), starts the server several
//! times to time set-up, then runs an untimed warm-up, the fixed-rate
//! `low` and `high` phases, and a fixed geometric rate ladder for the
//! highest rate that meets the workload's limits. `--trace 1` replaces
//! the ladder with a traced `high` phase and timed replays of single
//! layers, and reports the per-layer metrics. The last stdout line is
//! one JSON object; the process exits nonzero when any response was
//! wrong or any regime guard failed.

mod loadgen;
mod probe;
mod replay;
mod site;
mod spans;
mod worker;

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flash_net::{NetConfig, Server};

use loadgen::{Gen, PhaseOut, PhasePlan, FAILED};
use probe::{Counters, Cpu, Group, ThreadCpu};
use site::{Kind, Mix, Req, Sequence, Site, SiteKind};
use spans::Spans;

/// One workload: its traffic, its fixed rates and its ladder.
struct Spec {
    name: &'static str,
    site: SiteKind,
    mix: Mix,
    /// Fixed arrival rates of the `low` and `high` phases, req/s.
    low: f64,
    high: f64,
    /// Ladder rungs: `ladder_base * LADDER_RATIO^k` for `k < ladder_steps`.
    ladder_base: f64,
    ladder_steps: usize,
}

const LADDER_RATIO: f64 = 1.05;
/// A ladder window passes only if its p90 is within this limit...
const P90_LIMIT_MS: f64 = 20.0;
/// ...and it is a server result only if the generator's send lag p90
/// is within this one (a later window is a host stall).
const LAG_LIMIT_MS: f64 = 1.0;

const SPECS: [Spec; 3] = [
    Spec {
        name: "owlnet_hot",
        site: SiteKind::Owlnet8,
        mix: Mix::STATIC,
        low: 3_000.0,
        high: 10_000.0,
        ladder_base: 5_000.0,
        ladder_steps: 56,
    },
    Spec {
        name: "cs_cold",
        site: SiteKind::Cs,
        mix: Mix::STATIC,
        low: 1_500.0,
        high: 4_000.0,
        ladder_base: 2_000.0,
        ladder_steps: 48,
    },
    Spec {
        name: "mixed_dynamic",
        site: SiteKind::Owlnet8,
        mix: Mix::MIXED,
        low: 2_000.0,
        high: 5_000.0,
        ladder_base: 2_000.0,
        ladder_steps: 48,
    },
];

/// Set-ups per run; `setup_s` is their median.
const N_SETUP: usize = 51;

/// Phase tags: each phase draws its arrivals from its own stream.
const TAG_WARM: u64 = 100;
const TAG_LOW: u64 = 1_000;
const TAG_HIGH: u64 = 2_000;
const TAG_HIGH_TRACED: u64 = 3_000;
const TAG_LADDER: u64 = 10_000;

/// Requests at the start of the sequence that are plain GETs: the
/// warm-up sends them all, so revalidations can name their ETags.
const WARM_REQS: u64 = 1_000;
/// Upper bound on warm-up windows.
const MAX_WARM_WINDOWS: u64 = 40;

/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(500);
/// Share of `--seconds` spent in the interleaved fixed-rate windows.
const FIXED_SHARE: f64 = 0.6;
/// Largest share of CPU time the hypervisor may steal during a window
/// that counts towards the fixed-rate medians (`/proc/stat` counts in
/// 10 ms ticks, so a half-second window on two CPUs resolves 1%).
const MAX_WINDOW_STEAL: f64 = 0.02;
/// Length of one ladder window.
const RUNG_WINDOW: Duration = Duration::from_millis(500);
/// Backlog a passing ladder window may leave, in ms of arrivals.
const BACKLOG_MS: f64 = 5.0;
/// A ladder rung is decided by this many valid windows agreeing...
const RUNG_AGREE: usize = 2;
/// ...within this many windows; undecided rungs fail.
const RUNG_MAX_WINDOWS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker") {
        let seed = argv
            .get(1)
            .and_then(|s| s.parse().ok())
            .ok_or("--worker <seed> <pid-file>")?;
        let pid_file = argv.get(2).ok_or("--worker <seed> <pid-file>")?;
        if let Err(e) = worker::run(seed, Path::new(pid_file)) {
            eprintln!("worker: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = v.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return FAILED;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

/// The quantiles a phase keeps of its latency (or lag) samples, ms.
const QS: [f64; 5] = [0.50, 0.75, 0.90, 0.95, 0.99];

/// A phase keeps only these, so the generator's memory stays fixed.
#[derive(Clone, Copy, Default)]
struct Quantiles([f64; 5]);

impl Quantiles {
    fn of(mut ns: Vec<u64>) -> Quantiles {
        ns.sort_unstable();
        Quantiles(QS.map(|q| ms(quantile(&ns, q))))
    }

    fn get(&self, q: f64) -> f64 {
        self.0[QS.iter().position(|&x| x == q).expect("a kept quantile")]
    }

    /// Per-quantile median over windows.
    fn median_of(ws: impl Iterator<Item = Quantiles> + Clone) -> Quantiles {
        Quantiles(std::array::from_fn(|i| {
            median(&mut ws.clone().map(|w| w.0[i]).collect::<Vec<_>>())
        }))
    }
}

fn ms(ns: u64) -> f64 {
    if ns == FAILED {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured phase: the generator's view and the deltas of every
/// counter and CPU clock read from outside the server.
struct Phase {
    out: PhaseOut,
    lat: Quantiles,
    lag: Quantiles,
    cnt: Counters,
    cpu: ThreadCpu,
    gen_cpu: Cpu,
    worker_cpu: Cpu,
    /// Share of host CPU time the hypervisor stole during the phase.
    steal: f64,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.out.attempted - self.out.failed
    }
    fn p(&self, q: f64) -> f64 {
        self.lat.get(q)
    }
    fn lag_ms(&self, q: f64) -> f64 {
        self.lag.get(q)
    }

    /// One phase from several windows: counts and clocks summed,
    /// quantiles the median over windows.
    fn merge(ws: &[&Phase]) -> Phase {
        let mut m = Phase {
            out: PhaseOut::default(),
            lat: Quantiles::median_of(ws.iter().map(|w| w.lat)),
            lag: Quantiles::median_of(ws.iter().map(|w| w.lag)),
            cnt: Counters::default(),
            cpu: ThreadCpu::default(),
            gen_cpu: Cpu::default(),
            worker_cpu: Cpu::default(),
            steal: med(ws, |w| w.steal),
        };
        for w in ws {
            m.out.attempted += w.out.attempted;
            m.out.failed += w.out.failed;
            m.out.dynamic += w.out.dynamic;
            m.out.closes += w.out.closes;
            m.out.body_bytes += w.out.body_bytes;
            m.cnt.add(&w.cnt);
            m.cpu.add(&w.cpu);
            m.gen_cpu.add(w.gen_cpu);
            m.worker_cpu.add(w.worker_cpu);
        }
        m
    }
    fn per_req(&self, x: f64) -> f64 {
        x / self.completed().max(1) as f64
    }
    fn server_cpu_us_per_req(&self) -> f64 {
        self.per_req(self.cpu.server_run_ns() as f64 / 1e3)
    }
}

struct Run<'a> {
    srv: Server,
    gen: Gen<'a>,
    pid_file: PathBuf,
    spans: Option<Spans>,
}

impl Run<'_> {
    fn scrape(&mut self) -> (Counters, ThreadCpu, Cpu, Cpu, Cpu) {
        let start = Instant::now();
        let snap = (
            Counters::read(self.srv.stats()),
            ThreadCpu::sample(),
            probe::own_cpu(),
            probe::workers_cpu(&self.pid_file),
            probe::host_steal(),
        );
        if let Some(s) = self.spans.as_mut() {
            let id = s.id();
            s.record(id, 0, "stats.scrape", start, Instant::now());
        }
        snap
    }

    fn phase(&mut self, name: &'static str, plan: PhasePlan, traced: bool) -> Phase {
        let (c0, t0, g0, w0, h0) = self.scrape();
        let phase_id = self.spans.as_mut().map(|s| s.id());
        let start = Instant::now();
        if traced {
            if let (Some(s), Some(id)) = (self.spans.take(), phase_id) {
                self.gen.spans = Some((s, id));
            }
        }
        let mut out = self.gen.run(&plan);
        if let Some((s, _)) = self.gen.spans.take() {
            self.spans = Some(s);
        }
        if let (Some(s), Some(id)) = (self.spans.as_mut(), phase_id) {
            s.record(id, 0, name, start, Instant::now());
        }
        let (c1, t1, g1, w1, h1) = self.scrape();
        let steal = h1.since(h0);
        Phase {
            lat: Quantiles::of(std::mem::take(&mut out.lat_ns)),
            lag: Quantiles::of(std::mem::take(&mut out.lag_ns)),
            out,
            cnt: c1.since(&c0),
            cpu: t1.since(&t0),
            gen_cpu: g1.since(g0),
            worker_cpu: w1.since(w0),
            steal: steal.run_ns as f64 / steal.wait_ns.max(1) as f64,
        }
    }
}

/// Median over windows of a per-window value.
fn med(ws: &[&Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    let mut v: Vec<f64> = ws.iter().map(|p| f(p)).collect();
    if v.is_empty() {
        return 0.0;
    }
    median(&mut v)
}

/// The windows the host left alone: the generator sent on time (its
/// send lag p90 is within [`LAG_LIMIT_MS`]) and the hypervisor stole at
/// most [`MAX_WINDOW_STEAL`] of the CPU time. The others show the host,
/// not the server; they are dropped unless fewer than three windows
/// would remain.
fn valid(ws: &[Phase]) -> Vec<&Phase> {
    let v: Vec<&Phase> = ws
        .iter()
        .filter(|p| p.lag_ms(0.90) <= LAG_LIMIT_MS && p.steal <= MAX_WINDOW_STEAL)
        .collect();
    if v.len() >= 3 {
        v
    } else {
        ws.iter().collect()
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// The set-up probes: one request of every kind the workload uses.
fn probe_reqs(site: &Site, mix: &Mix) -> Vec<Req> {
    let file = site.log[0];
    let get = Req {
        kind: Kind::Get,
        file,
        close: false,
    };
    let mut v = vec![get];
    if mix.has_dynamic() {
        let size = site.files[file as usize].size;
        v.push(Req {
            kind: Kind::Revalidate,
            ..get
        });
        v.push(Req {
            kind: Kind::Range(0, size.min(100) - 1),
            ..get
        });
        v.push(Req {
            kind: Kind::Dynamic(0),
            ..get
        });
        v.push(Req { close: true, ..get });
    }
    v
}

/// Opens `n` connections spread over the server's shards. The kernel's
/// reuseport hash places each connection on a random shard, and with
/// only `nproc` long-lived connections a run would otherwise measure
/// one shard or all of them by chance. Which shard accepted is read from
/// the public per-shard `accepted` counters; a connection landing on a
/// shard that already has one, while another shard has none, is closed
/// and made again. Returns the streams, the connections opened, and
/// the shards they landed on.
fn spread_conns(srv: &Server, n: usize) -> Result<(Vec<TcpStream>, u64, usize), String> {
    use std::sync::atomic::Ordering::Relaxed;
    let shards = srv.stats().per_shard();
    let accepted = || {
        shards
            .iter()
            .map(|s| s.accepted.load(Relaxed))
            .collect::<Vec<u64>>()
    };
    let mut used = vec![false; shards.len()];
    let (mut keep, mut opened) = (Vec::new(), 0u64);
    while keep.len() < n {
        let before = accepted();
        let st = TcpStream::connect(srv.addr()).map_err(|e| format!("connect: {e}"))?;
        opened += 1;
        let waited = Instant::now();
        let shard = loop {
            if let Some(i) = accepted().iter().zip(&before).position(|(a, b)| a > b) {
                break Some(i);
            }
            if waited.elapsed() > Duration::from_secs(1) {
                break None;
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let fresh = shard.is_some_and(|i| !used[i]);
        let spare_shard = used.iter().any(|u| !u);
        if fresh || !spare_shard || opened > 64 {
            if let Some(i) = shard {
                used[i] = true;
            }
            keep.push(st);
        }
    }
    Ok((keep, opened, used.iter().filter(|&&u| u).count()))
}

/// Starts the server and waits for a verified response of every
/// request kind; returns the server and the elapsed time.
fn setup_once(cfg: &NetConfig, seq: &Sequence<'_>) -> Result<(Server, Duration), String> {
    let t0 = Instant::now();
    let srv = Server::start("127.0.0.1:0", cfg.clone()).map_err(|e| format!("start: {e}"))?;
    let mut conn = TcpStream::connect(srv.addr()).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut etags = vec![None; seq.site.files.len()];
    for r in probe_reqs(seq.site, &seq.mix) {
        loadgen::probe(&mut conn, seq, &mut etags, &r)?;
    }
    Ok((srv, t0.elapsed()))
}

struct Guard {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn guard(name: &'static str, ok: bool, detail: String) -> Guard {
    Guard { name, ok, detail }
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    guards: Vec<Guard>,
    notes: Vec<String>,
}

/// Removes the run's scratch directory however the run ends.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = args.seconds;

    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench-work");
    let dir = work.join(format!("{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _cleanup = Cleanup(dir.clone());

    let t_gen = Instant::now();
    let site = Site::generate(spec.site, args.seed, &dir.join("docroot"))
        .map_err(|e| format!("docroot: {e}"))?;
    let seq = Sequence {
        site: &site,
        mix: spec.mix,
        warm: WARM_REQS,
    };
    let mut notes = vec![
        format!(
            "inputs: {} files, {:.1} MiB, mean transfer {:.0} B (trace seed try {}), largest file {} B, docroot digest {:016x}, schedule digest {:016x} (generated in {:.2} s)",
            site.files.len(),
            site.dataset_bytes() as f64 / 1048576.0,
            site.mean_transfer(),
            site.trace_tries,
            site.files.iter().map(|f| f.size).max().unwrap_or(0),
            site.digest(),
            site::mix2(
                seq.digest(20_000),
                site::arrivals(args.seed, TAG_HIGH, spec.high, WINDOW.as_nanos() as u64)
                    .iter()
                    .fold(0, |h, &t| site::mix2(h, t))
            ),
            t_gen.elapsed().as_secs_f64()
        ),
        format!(
            "machine: nproc {nproc}, loopback, docroot resident in the page cache; generator 1 thread, {nproc} connections"
        ),
    ];

    let pid_file = dir.join("workers.pid");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let worker_cmd = vec![
        exe.to_string_lossy().into_owned(),
        "--worker".to_string(),
        args.seed.to_string(),
        pid_file.to_string_lossy().into_owned(),
    ];
    let mut builder = NetConfig::builder(&site.root);
    if spec.mix.has_dynamic() {
        builder = builder
            .dynamic_prefix("/app/")
            .dynamic_command(worker_cmd.clone());
    }
    let cfg = builder.build().map_err(|e| format!("config: {e}"))?;

    let _awake = loadgen::KeepAwake::start(nproc);
    let mut spans = args.trace.then(Spans::new);
    let mut setup_s = Vec::new();
    let mut srv = None;
    let t_setup = Instant::now();
    for i in 0..N_SETUP {
        let start = Instant::now();
        let (s, took) = setup_once(&cfg, &seq)?;
        if let Some(sp) = spans.as_mut() {
            let id = sp.id();
            sp.record(id, 0, "start", start, Instant::now());
        }
        setup_s.push(took.as_secs_f64());
        if i + 1 < N_SETUP {
            s.stop();
        } else {
            srv = Some(s);
        }
    }
    let srv = srv.expect("at least one set-up ran");
    notes.push(format!(
        "set-up: {N_SETUP} starts in {:.2} s",
        t_setup.elapsed().as_secs_f64()
    ));
    // The probes' responses are counted as they finish, which can trail
    // the client's receipt of their last byte.
    let probes = probe_reqs(&site, &spec.mix).len() as u64;
    let settle = Instant::now();
    while srv.stats().requests() < probes && settle.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let addr = srv.addr();
    let mut gen = Gen::new(addr, &seq, nproc);
    let accepted0 = srv.stats().accepted();
    let (streams, opened, shards_used) = spread_conns(&srv, nproc)?;
    gen.adopt(streams, opened)
        .map_err(|e| format!("adopt: {e}"))?;
    notes.push(format!(
        "connections: {nproc} on {shards_used} shards ({opened} opened)"
    ));
    let mut r = Run {
        srv,
        gen,
        pid_file,
        spans,
    };
    loadgen::tighten_timer_slack();
    let realtime = loadgen::set_realtime(true);
    notes.push(format!(
        "generator realtime priority: {}",
        if realtime { "on" } else { "unavailable" }
    ));
    let (base_cnt, .., steal0) = r.scrape();

    let lim_ns = (P90_LIMIT_MS * 1e6) as u64;
    let window = |tag, rate| PhasePlan {
        tag,
        rate,
        dur: WINDOW,
        abort_late_ns: None,
    };
    // Warm-up: windows at the high rate until the content cache stops
    // growing (full, or holding the whole hot set).
    let mut warm_w = Vec::new();
    let mut used = 0;
    for i in 0..MAX_WARM_WINDOWS {
        warm_w.push(r.phase("phase.warmup", window(TAG_WARM + i, spec.high), args.trace));
        let now_used = r.srv.stats().cache_used_bytes();
        let grew = now_used > used + used / 100;
        used = now_used;
        if i >= 1 && !grew && r.gen.issued() >= WARM_REQS {
            break;
        }
    }
    notes.push(format!(
        "warm-up: {} windows, cache {:.1} MiB",
        warm_w.len(),
        used as f64 / 1048576.0
    ));
    // The fixed-rate phases are interleaved windows, so both sample the
    // same stretches of the run; each metric is the median over windows.
    let kinds = if args.trace { 3 } else { 2 };
    let n_win = ((FIXED_SHARE * s / (kinds as f64 * WINDOW.as_secs_f64())).round() as u64).max(3);
    let (mut low_w, mut high_w, mut traced_w) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n_win {
        low_w.push(r.phase("phase.low", window(TAG_LOW + i, spec.low), args.trace));
        high_w.push(r.phase("phase.high", window(TAG_HIGH + i, spec.high), false));
        if args.trace {
            traced_w.push(r.phase(
                "phase.high_traced",
                window(TAG_HIGH_TRACED + i, spec.high),
                true,
            ));
        }
    }
    let mut ladder_w = Vec::new();
    let mut max_rate = 0.0;
    if !args.trace {
        // Bisection over the fixed ladder. A rung passes when two valid
        // windows pass before two fail, so one stalled window does not
        // decide it.
        let (mut lo, mut hi) = (-1i64, spec.ladder_steps as i64);
        let mut log = Vec::new();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let rate = spec.ladder_base * LADDER_RATIO.powi(mid as i32);
            let (mut pass_n, mut fail_n, mut achieved) = (0, 0, Vec::new());
            let mut rung_log = Vec::new();
            for w in 0..RUNG_MAX_WINDOWS {
                if pass_n == RUNG_AGREE || fail_n == RUNG_AGREE {
                    break;
                }
                let p = r.phase(
                    "phase.ladder",
                    PhasePlan {
                        abort_late_ns: Some(lim_ns),
                        dur: RUNG_WINDOW,
                        ..window(TAG_LADDER + 16 * mid as u64 + w as u64, rate)
                    },
                    false,
                );
                // A window in which the generator itself ran late was
                // shaped by the host, not the server: it is retried.
                let valid = p.lag_ms(0.90) <= LAG_LIMIT_MS;
                // Completions keep pace with sends: what is outstanding
                // when sending stops is at most BACKLOG_MS of arrivals.
                let backlog_cap = (rate * BACKLOG_MS / 1e3).max(8.0) as u64;
                let pass = p.out.failed == 0
                    && !p.out.aborted
                    && p.p(0.90) <= P90_LIMIT_MS
                    && p.out.backlog_at_end <= backlog_cap;
                rung_log.push(format!(
                    "{}(p90 {:.3} lag90 {:.3} backlog {})",
                    match (valid, pass) {
                        (false, _) => "late",
                        (true, true) => "ok",
                        (true, false) => "x",
                    },
                    p.p(0.90),
                    p.lag_ms(0.90),
                    p.out.backlog_at_end
                ));
                if valid && pass {
                    pass_n += 1;
                    achieved.push(p.completed() as f64 / p.out.wall.as_secs_f64().max(1e-9));
                } else if valid {
                    fail_n += 1;
                }
                ladder_w.push(p);
            }
            let pass = pass_n == RUNG_AGREE;
            log.push(format!("{rate:.0}:{}", rung_log.join(",")));
            if pass {
                lo = mid;
                max_rate = median(&mut achieved);
            } else {
                hi = mid;
            }
        }
        notes.push(format!("ladder: {}", log.join(" ")));
    }
    r.gen.close_all();
    let mut all: Vec<&Phase> = warm_w.iter().collect();
    all.extend(
        low_w
            .iter()
            .chain(&high_w)
            .chain(&traced_w)
            .chain(&ladder_w),
    );
    let attempted: u64 = all.iter().map(|p| p.out.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.out.failed).sum();
    let completed: u64 = all.iter().map(|p| p.completed()).sum();
    let dyn_done: u64 = all.iter().map(|p| p.out.dynamic).sum();
    let closes: u64 = all.iter().map(|p| p.out.closes).sum();
    // Counters are bumped as a response is finished, which can trail
    // the client's receipt of its last byte by a moment.
    let settle = Instant::now();
    while r.srv.stats().requests() - base_cnt.requests < completed
        && settle.elapsed() < Duration::from_secs(1)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (end_cnt, .., steal1) = r.scrape();
    let total = end_cnt.since(&base_cnt);
    let steal = steal1.since(steal0);
    notes.push(format!(
        "host: {:.1}% of CPU time stolen by the hypervisor while measuring",
        100.0 * steal.run_ns as f64 / steal.wait_ns.max(1) as f64
    ));
    let conns_opened = r.gen.conns_opened;

    loadgen::set_realtime(false);
    let replays = if args.trace {
        let mut sp = r.spans.take().expect("traced runs record spans");
        let parent = sp.id();
        let start = Instant::now();
        let per_shard = cfg.cache_bytes / cfg.event_loops as u64;
        let rep = replay::run(
            &seq,
            r.gen.etags(),
            WARM_REQS,
            &worker_cmd,
            per_shard,
            &mut sp,
            parent,
        );
        sp.record(parent, 0, "replays", start, Instant::now());
        r.spans = Some(sp);
        Some(rep)
    } else {
        None
    };
    let request_p50_ms = r.srv.stats().request_latency().quantile(0.5) as f64 / 1e6;
    let ttfb_p50_ms = r.srv.stats().ttfb().quantile(0.5) as f64 / 1e6;
    r.srv.stop();

    if all.iter().any(|p| p.cpu.fallback) {
        notes.push("schedstat missing: CPU from tick-granular /proc stat".into());
    }
    notes.push(format!(
        "fail_frac {} ({failed} of {attempted} requests)",
        failed as f64 / attempted.max(1) as f64
    ));
    let low_v = valid(&low_w);
    let high_v = valid(&high_w);
    let traced_v = valid(&traced_w);
    notes.push(format!(
        "fixed-rate windows kept (generator on time, host steal at most 2%): low {}/{}, high {}/{}",
        low_v.len(),
        low_w.len(),
        high_v.len(),
        high_w.len()
    ));
    let low = Phase::merge(&low_v);
    let high = Phase::merge(&high_v);
    let (low, high) = (&low, &high);

    // Regime guards: a workload that left its regime fails loudly.
    let h = &high.cnt;
    let static_reqs = h.requests.saturating_sub(h.dynamic_requests).max(1);
    let hit_ratio = h.cache_hits as f64 / static_reqs as f64;
    let jobs_per_req = h.helper_jobs.saturating_sub(h.dynamic_requests) as f64 / static_reqs as f64;
    let dyn_share = h.dynamic_requests as f64 / h.requests.max(1) as f64;
    let accepts_per_kreq = high.cnt.accepted as f64 * 1e3 / high.completed().max(1) as f64;
    let mut guards = vec![
        guard(
            "requests_reconcile",
            failed > 0 || total.requests == completed,
            format!(
                "server requests {} vs generator completions {completed}",
                total.requests
            ),
        ),
        guard(
            "accepts_reconcile",
            end_cnt.accepted - accepted0 == conns_opened,
            format!(
                "server accepted {} vs connections opened {conns_opened}",
                end_cnt.accepted - accepted0
            ),
        ),
        guard(
            "no_respawns_or_timeouts",
            total.worker_respawns == 0 && total.timeouts() == 0,
            format!(
                "respawns {} timeouts {}",
                total.worker_respawns,
                total.timeouts()
            ),
        ),
        guard(
            "dynamic_reconcile",
            failed > 0 || total.dynamic_requests == dyn_done,
            format!(
                "server dynamic {} vs generator {dyn_done}",
                total.dynamic_requests
            ),
        ),
    ];
    match spec.name {
        "owlnet_hot" => guards.push(guard(
            "cache_hit_ratio_high",
            hit_ratio >= 0.9,
            format!("hit ratio {hit_ratio:.4} (floor 0.9)"),
        )),
        "cs_cold" => guards.push(guard(
            "helper_busy",
            jobs_per_req >= 0.1 && h.sendfile_calls > 0,
            format!("jobs/req {jobs_per_req:.3} (floor 0.1), sendfile calls {}", h.sendfile_calls),
        )),
        _ => guards.push(guard(
            "dynamic_mix_on_schedule",
            (0.15..=0.25).contains(&dyn_share)
                && (20.0..=80.0).contains(&accepts_per_kreq)
                && conns_opened <= opened + closes
                && conns_opened + nproc as u64 >= opened + closes,
            format!(
                "dyn share {dyn_share:.3} (0.15..0.25), accepts/kreq {accepts_per_kreq:.1} (20..80), {conns_opened} connections for {opened} initial and {closes} closes"
            ),
        )),
    }

    let metrics = if let Some(rep) = replays {
        let worker_cpu = high.worker_cpu.run_ns as f64 / 1e3 / h.dynamic_requests.max(1) as f64;
        let c = &high.cpu;
        let n = high.completed().max(1) as f64;
        let us = |ns: u64| ns as f64 / 1e3 / n;
        let metrics = vec![
            metric("loadgen.lag_p99_ms", high.lag_ms(0.99), "ms"),
            metric("loadgen.cpu_us_per_req", us(high.gen_cpu.run_ns), "us"),
            metric("loadgen.conns_opened", conns_opened as f64, "count"),
            metric("loadgen.p99_ms.high", high.p(0.99), "ms"),
            metric("loadgen.p90_ms.low", med(&low_v, |p| p.p(0.90)), "ms"),
            metric("loadgen.p90_ms.high", med(&high_v, |p| p.p(0.90)), "ms"),
            metric("process.peak_rss_mib", probe::peak_rss_mib(), "MiB"),
            metric("http.parse_ns_per_req", rep.parse_ns_per_req, "ns"),
            metric("http.render_ns_per_resp", rep.render_ns_per_resp, "ns"),
            metric("http.chunk_ns_per_kib", rep.chunk_ns_per_kib, "ns"),
            metric("conn.core_ns_per_req", rep.core_ns_per_req, "ns"),
            metric("conn.plan_ns_per_req", rep.plan_ns_per_req, "ns"),
            metric("cache.hit_ratio", hit_ratio, "ratio"),
            metric(
                "cache.revalidations_per_kreq",
                h.revalidations as f64 * 1e3 / n,
                "count",
            ),
            metric(
                "cache.used_mib",
                h.cache_used_bytes as f64 / 1048576.0,
                "MiB",
            ),
            metric("cache.lookup_ns", rep.cache_lookup_ns, "ns"),
            metric("cache.insert_ns", rep.cache_insert_ns, "ns"),
            metric("helper.jobs_per_req", jobs_per_req, "ratio"),
            metric(
                "helper.cpu_us_per_req",
                us(c.get(Group::Helper).run_ns),
                "us",
            ),
            metric(
                "helper.runq_wait_us_per_req",
                us(c.get(Group::Helper).wait_ns),
                "us",
            ),
            metric("fsjob.load_us", rep.fsjob_load_us, "us"),
            metric(
                "helper.jobs_cancelled",
                total.jobs_cancelled as f64,
                "count",
            ),
            metric(
                "helper.wait_timeouts",
                total.helper_wait_timeouts as f64,
                "count",
            ),
            metric("shard.cpu_us_per_req", us(c.get(Group::Shard).run_ns), "us"),
            metric(
                "shard.runq_wait_us_per_req",
                us(c.get(Group::Shard).wait_ns),
                "us",
            ),
            metric("event.wait_calls_per_req", h.wait_calls as f64 / n, "ratio"),
            metric(
                "event.events_per_wait",
                h.wait_events as f64 / h.wait_calls.max(1) as f64,
                "ratio",
            ),
            metric(
                "shard.phase_read_us_per_req",
                h.phase_read_us as f64 / n,
                "us",
            ),
            metric(
                "shard.phase_respond_us_per_req",
                h.phase_respond_us as f64 / n,
                "us",
            ),
            metric(
                "shard.phase_completions_us_per_req",
                h.phase_completions_us as f64 / n,
                "us",
            ),
            metric(
                "shard.phase_timers_us_per_req",
                h.phase_timers_us as f64 / n,
                "us",
            ),
            metric("shard.loop_stalls", total.loop_stalls as f64, "count"),
            metric(
                "shard.loop_stall_max_us",
                total.loop_stall_max_us as f64,
                "us",
            ),
            metric("timer.timeouts", total.timeouts() as f64, "count"),
            metric("send.writev_per_req", h.writev_calls as f64 / n, "ratio"),
            metric(
                "send.sendfile_per_req",
                h.sendfile_calls as f64 / n,
                "ratio",
            ),
            metric(
                "send.sendfile_byte_share",
                h.bytes_sendfile as f64 / high.out.body_bytes.max(1) as f64,
                "ratio",
            ),
            metric("sock.accepts_per_kreq", accepts_per_kreq, "count"),
            metric(
                "sock.accept_us_per_conn",
                if h.accepted == 0 {
                    0.0
                } else {
                    h.phase_accept_us as f64 / h.accepted as f64
                },
                "us",
            ),
            metric(
                "sock.accept_backpressure",
                total.accept_backpressure as f64,
                "count",
            ),
            metric("appworker.dyn_share", dyn_share, "ratio"),
            metric("appworker.run_job_us", rep.run_job_us, "us"),
            metric("appworker.worker_cpu_us_per_dyn_req", worker_cpu, "us"),
            metric("appworker.respawns", total.worker_respawns as f64, "count"),
            metric("appworker.timeouts", total.dynamic_timeouts as f64, "count"),
            metric("server.request_p50_ms", request_p50_ms, "ms"),
            metric("server.ttfb_p50_ms", ttfb_p50_ms, "ms"),
            metric(
                "trace.overhead_p50_ms_high",
                med(&traced_v, |p| p.p(0.5)) - med(&high_v, |p| p.p(0.5)),
                "ms",
            ),
            metric(
                "trace.overhead_cpu_us_high",
                med(&traced_v, Phase::server_cpu_us_per_req)
                    - med(&high_v, Phase::server_cpu_us_per_req),
                "us",
            ),
        ];
        let sp = r.spans.as_ref().expect("traced runs record spans");
        let path = work.join(format!("spans-{}.csv", spec.name));
        sp.write_csv(&path).map_err(|e| format!("spans: {e}"))?;
        notes.push(format!("spans: {} written to {}", sp.len(), path.display()));
        metrics
    } else {
        let metrics = vec![
            metric("p50_ms.low", med(&low_v, |p| p.p(0.50)), "ms"),
            metric("p50_ms.high", med(&high_v, |p| p.p(0.50)), "ms"),
            metric(
                "server_cpu_us_per_req.low",
                med(&low_v, Phase::server_cpu_us_per_req),
                "us",
            ),
            metric(
                "server_cpu_us_per_req.high",
                med(&high_v, Phase::server_cpu_us_per_req),
                "us",
            ),
            metric("setup_s", median(&mut setup_s), "s"),
        ];
        // Printed with the gated metrics but not gated: on a shared
        // two-vCPU host their run-to-run spread exceeds any usable bound.
        for (name, v, unit) in [
            ("max_rate_rps", max_rate, "1/s"),
            ("p90_ms.low", med(&low_v, |p| p.p(0.90)), "ms"),
            ("p90_ms.high", med(&high_v, |p| p.p(0.90)), "ms"),
            (
                "fail_frac",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mib", probe::peak_rss_mib(), "MiB"),
        ] {
            notes.push(format!("{name} {v} {unit} (diagnostic)"));
        }
        for (name, p) in [("low", low), ("high", high)] {
            notes.push(format!(
                "{name}: {} done, p50/75/90/95 {:.3}/{:.3}/{:.3}/{:.3} ms, loadgen cpu {:.2} us/req runq {:.1} ms, server cpu {:.2} us/req runq {:.1} ms, lag p50/p99 {:.3}/{:.3} ms, p99 {:.3} ms, wall {:.2} s",
                p.completed(),
                p.p(0.5),
                p.p(0.75),
                p.p(0.9),
                p.p(0.95),
                p.per_req(p.gen_cpu.run_ns as f64 / 1e3),
                p.gen_cpu.wait_ns as f64 / 1e6,
                p.server_cpu_us_per_req(),
                p.cpu.groups.iter().map(|c| c.wait_ns).sum::<u64>() as f64 / 1e6,
                p.lag_ms(0.5),
                p.lag_ms(0.99),
                p.p(0.99),
                p.out.wall.as_secs_f64()
            ));
        }
        notes.push(format!(
            "loadgen: lag p99 high {:.3} ms, p99 high {:.3} ms, conns opened {conns_opened}",
            high.lag_ms(0.99),
            high.p(0.99)
        ));
        metrics
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        guards,
        notes,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for g in &out.guards {
        println!(
            "guard {} {} ({})",
            g.name,
            if g.ok { "ok" } else { "FAILED" },
            g.detail
        );
    }
    for (name, v, unit) in &out.metrics {
        println!("{name} {v} {unit}");
    }
    let correct = out.failed == 0
        && out.guards.iter().all(|g| g.ok)
        && out.metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
