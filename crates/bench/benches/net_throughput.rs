//! Concurrent-client throughput of the real servers over loopback:
//! sharded AMPED (1 shard vs. N shards) against MT, so the multicore
//! speedup is measured rather than asserted — plus an accept-rate
//! scenario (short-lived connections, the single acceptor thread vs.
//! per-shard `SO_REUSEPORT` listeners), a large-file scenario pitting
//! the `sendfile(2)` tier against forcing the same body through the
//! in-memory cache + `writev` tier, a send-plane scenario (ranged 206
//! windows over the sendfile tier and precompressed `.gz` variants out
//! of the content cache), a dynamic-tier scenario (small worker
//! responses streamed back as chunked frames), and a
//! many-idle-connections scenario (64 active among 1024 registered)
//! pitting the edge-triggered `epoll` backend's O(ready fds) waits
//! against the `poll` backend's O(watched fds) scans.
//!
//! Run with `cargo bench -p flash-bench --bench net_throughput`; under
//! `cargo test` each configuration runs once as a smoke test.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use flash_net::event::{ensure_fd_limit, resolve, BackendChoice, BackendKind};
use flash_net::{
    AcceptMode, AcceptModeKind, BenchReport, MtServer, NetConfig, Server, ServerStats,
};

const CLIENTS: usize = 8;
const REQS_PER_CLIENT: usize = 50;

/// p50/p99 request latency in milliseconds, read off the server's own
/// log-bucketed histogram rather than client-side sampling — the same
/// numbers `/.flash/metrics` exports.
fn latency_percentiles(stats: &ServerStats) -> (Option<f64>, Option<f64>) {
    let s = stats.request_latency().summary();
    if s.count == 0 {
        return (None, None);
    }
    (
        Some(s.p50_nanos as f64 / 1e6),
        Some(s.p99_nanos as f64 / 1e6),
    )
}

/// Builds a docroot of a few small cacheable files.
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..8 {
        std::fs::write(
            dir.join(format!("f{i}.html")),
            vec![b'a' + i as u8; 2048 + 512 * i],
        )
        .unwrap();
    }
    dir
}

/// Reads one keep-alive response off `reader` — status asserted 200
/// or 206 (the range scenario streams windows), headers scanned for
/// `Content-Length`, body read into `body` — and returns the body
/// length. The one place bench clients parse HTTP.
fn read_keepalive_response(reader: &mut impl std::io::BufRead, body: &mut Vec<u8>) -> usize {
    let mut len: usize = 0;
    let mut line = String::new();
    let mut first = true;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read header line");
        if first {
            assert!(
                line.starts_with("HTTP/1.1 200 OK")
                    || line.starts_with("HTTP/1.1 206 Partial Content"),
                "{line}"
            );
            first = false;
        }
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            len = v.trim().parse().unwrap();
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    body.resize(len, 0);
    reader.read_exact(body).expect("read body");
    len
}

/// One client: a persistent keep-alive connection issuing sequential
/// requests and fully reading each response through a buffered reader
/// (so the *server*, not client syscalls, is what gets measured).
fn client_run(addr: SocketAddr, id: usize, requests: usize) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).ok();
    let mut writer = s.try_clone().expect("clone");
    let mut reader = std::io::BufReader::with_capacity(16 * 1024, s);
    let mut body = Vec::with_capacity(8192);
    for r in 0..requests {
        let path = format!("/f{}.html", (id + r) % 8);
        writer
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())
            .expect("send");
        read_keepalive_response(&mut reader, &mut body);
    }
}

/// Drives `CLIENTS` concurrent keep-alive clients to completion.
fn storm(addr: SocketAddr) {
    let threads: Vec<_> = (0..CLIENTS)
        .map(|id| std::thread::spawn(move || client_run(addr, id, REQS_PER_CLIENT)))
        .collect();
    for t in threads {
        t.join().expect("client");
    }
}

fn bench_net_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_throughput");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements((CLIENTS * REQS_PER_CLIENT) as u64));
    let mut report = BenchReport::new();

    let root = docroot("amped1");
    let server = Server::start(
        "127.0.0.1:0",
        NetConfig::builder(&root).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    let t0 = std::time::Instant::now();
    g.bench_function("amped_1_shard", |b| b.iter(|| storm(addr)));
    let (p50, p99) = latency_percentiles(server.stats());
    report.record_full(
        "net_throughput/amped_1_shard",
        server.stats().requests(),
        t0.elapsed().as_secs_f64(),
        false,
        None,
        p50,
        p99,
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    let shards = flash_net::config::default_event_loops().max(4);
    let root = docroot("ampedN");
    let server = Server::start(
        "127.0.0.1:0",
        NetConfig::builder(&root)
            .event_loops(shards)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    let t0 = std::time::Instant::now();
    g.bench_function(&format!("amped_{shards}_shards"), |b| {
        b.iter(|| storm(addr))
    });
    let (p50, p99) = latency_percentiles(server.stats());
    report.record_full(
        &format!("net_throughput/amped_{shards}_shards"),
        server.stats().requests(),
        t0.elapsed().as_secs_f64(),
        false,
        None,
        p50,
        p99,
    );
    let spread: Vec<u64> = server
        .stats()
        .per_shard()
        .iter()
        .map(|s| s.requests.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    println!("per-shard requests after amped_{shards}_shards: {spread:?}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    let root = docroot("mt");
    let server =
        MtServer::start("127.0.0.1:0", NetConfig::builder(&root).build().unwrap()).unwrap();
    let addr = server.addr();
    let t0 = std::time::Instant::now();
    g.bench_function("mt_thread_per_conn", |b| b.iter(|| storm(addr)));
    let (p50, p99) = latency_percentiles(server.stats());
    report.record_full(
        "net_throughput/mt_thread_per_conn",
        server.stats().requests(),
        t0.elapsed().as_secs_f64(),
        false,
        None,
        p50,
        p99,
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    g.finish();
    match report.write() {
        Ok(path) => println!("recorded net_throughput scenarios to {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}

const LARGE_FILE_BYTES: usize = 1024 * 1024;
const LARGE_CLIENTS: usize = 4;
const LARGE_REQS: usize = 8;

/// Builds a docroot holding one large (1 MiB) file.
fn docroot_large(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("large.bin"), vec![0x5A; LARGE_FILE_BYTES]).unwrap();
    dir
}

/// One keep-alive client fetching the large file repeatedly.
fn client_large(addr: SocketAddr, requests: usize) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.set_nodelay(true).ok();
    let mut writer = s.try_clone().expect("clone");
    let mut reader = std::io::BufReader::with_capacity(64 * 1024, s);
    let mut body = vec![0u8; LARGE_FILE_BYTES];
    for _ in 0..requests {
        writer
            .write_all(b"GET /large.bin HTTP/1.1\r\nHost: b\r\n\r\n")
            .expect("send");
        let len = read_keepalive_response(&mut reader, &mut body);
        assert_eq!(len, LARGE_FILE_BYTES);
    }
}

fn storm_large(addr: SocketAddr) {
    let threads: Vec<_> = (0..LARGE_CLIENTS)
        .map(|_| std::thread::spawn(move || client_large(addr, LARGE_REQS)))
        .collect();
    for t in threads {
        t.join().expect("client");
    }
}

/// The same 1 MiB body through both tiers: `sendfile(2)` from the page
/// cache (default threshold) versus forced through the content cache
/// and `writev` (threshold raised above the file size).
fn bench_large_file(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_large_file");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Bytes(
        (LARGE_CLIENTS * LARGE_REQS * LARGE_FILE_BYTES) as u64,
    ));

    let root = docroot_large("sendfile");
    let server = Server::start(
        "127.0.0.1:0",
        NetConfig::builder(&root).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    g.bench_function("amped_1mib_sendfile", |b| b.iter(|| storm_large(addr)));
    assert!(
        server.stats().sendfile_calls() > 0,
        "large bodies must take the sendfile tier"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    let root = docroot_large("cached");
    let server = Server::start(
        "127.0.0.1:0",
        NetConfig::builder(&root)
            .event_loops(1)
            .sendfile_threshold_bytes(16 * 1024 * 1024)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    g.bench_function("amped_1mib_cached_writev", |b| b.iter(|| storm_large(addr)));
    assert_eq!(server.stats().sendfile_calls(), 0);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    g.finish();
}

const PLANE_CLIENTS: usize = 8;
const PLANE_REQS: usize = 40;
const RANGE_WINDOW: usize = 64 * 1024;
const GZ_BODY_BYTES: usize = 1024;

/// Docroot for the send-plane scenarios: the 1 MiB file for ranged
/// sendfile windows plus small pages with precompressed `.gz`
/// siblings. The gzip bytes are opaque to the server — it negotiates
/// and serves the sibling, it never inflates it — so a fixed pattern
/// of a known length stands in for real compressor output.
fn docroot_plane(tag: &str) -> std::path::PathBuf {
    let dir = docroot_large(tag);
    for i in 0..8 {
        std::fs::write(dir.join(format!("f{i}.html")), vec![b'a' + i as u8; 4096]).unwrap();
        std::fs::write(
            dir.join(format!("f{i}.html.gz")),
            vec![b'A' + i as u8; GZ_BODY_BYTES],
        )
        .unwrap();
    }
    dir
}

/// One keep-alive client issuing 64 KiB `Range` windows that march
/// around the 1 MiB file; every response must be a 206 of exactly the
/// requested window.
fn client_range(addr: SocketAddr, id: usize, requests: usize) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.set_nodelay(true).ok();
    let mut writer = s.try_clone().expect("clone");
    let mut reader = std::io::BufReader::with_capacity(64 * 1024, s);
    let mut body = vec![0u8; RANGE_WINDOW];
    let windows = LARGE_FILE_BYTES / RANGE_WINDOW;
    for r in 0..requests {
        let start = ((id * 7 + r) % windows) * RANGE_WINDOW;
        let end = start + RANGE_WINDOW - 1;
        writer
            .write_all(
                format!("GET /large.bin HTTP/1.1\r\nHost: b\r\nRange: bytes={start}-{end}\r\n\r\n")
                    .as_bytes(),
            )
            .expect("send");
        let len = read_keepalive_response(&mut reader, &mut body);
        assert_eq!(len, RANGE_WINDOW);
    }
}

/// One keep-alive client fetching small pages with
/// `Accept-Encoding: gzip`; every response must be the precompressed
/// sibling (its exact length proves the variant was served).
fn client_gz(addr: SocketAddr, id: usize, requests: usize) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).ok();
    let mut writer = s.try_clone().expect("clone");
    let mut reader = std::io::BufReader::with_capacity(16 * 1024, s);
    let mut body = Vec::with_capacity(GZ_BODY_BYTES);
    for r in 0..requests {
        let path = format!("/f{}.html", (id + r) % 8);
        writer
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: b\r\nAccept-Encoding: gzip\r\n\r\n")
                    .as_bytes(),
            )
            .expect("send");
        let len = read_keepalive_response(&mut reader, &mut body);
        assert_eq!(len, GZ_BODY_BYTES);
    }
}

/// The send plane under its two new body shapes: 64 KiB `Range`
/// windows carved out of a 1 MiB file — each 206 rides the sendfile
/// tier, because the *representation*, not the window, picks the tier
/// — and precompressed `.gz` variants served out of the content cache
/// to `Accept-Encoding: gzip` clients.
fn bench_send_plane(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_send_plane");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    let mut report = BenchReport::new();

    let root = docroot_plane("range-sendfile");
    let server = Server::start(
        "127.0.0.1:0",
        NetConfig::builder(&root).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    g.throughput(Throughput::Bytes(
        (PLANE_CLIENTS * PLANE_REQS * RANGE_WINDOW) as u64,
    ));
    let t0 = std::time::Instant::now();
    g.bench_function("range_sendfile", |b| {
        b.iter(|| {
            let threads: Vec<_> = (0..PLANE_CLIENTS)
                .map(|id| std::thread::spawn(move || client_range(addr, id, PLANE_REQS)))
                .collect();
            for t in threads {
                t.join().expect("range client");
            }
        })
    });
    assert!(
        server.stats().sendfile_calls() > 0,
        "ranged windows of a 1 MiB file must ride the sendfile tier"
    );
    assert!(server.stats().range_requests() > 0);
    assert_eq!(server.stats().range_unsatisfiable(), 0);
    let (p50, p99) = latency_percentiles(server.stats());
    report.record_full(
        "net_send_plane/range_sendfile",
        server.stats().requests(),
        t0.elapsed().as_secs_f64(),
        false,
        None,
        p50,
        p99,
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    let root = docroot_plane("precompressed");
    let server = Server::start(
        "127.0.0.1:0",
        NetConfig::builder(&root).event_loops(1).build().unwrap(),
    )
    .unwrap();
    let addr = server.addr();
    g.throughput(Throughput::Elements((PLANE_CLIENTS * PLANE_REQS) as u64));
    let t0 = std::time::Instant::now();
    g.bench_function("precompressed_hit", |b| {
        b.iter(|| {
            let threads: Vec<_> = (0..PLANE_CLIENTS)
                .map(|id| std::thread::spawn(move || client_gz(addr, id, PLANE_REQS)))
                .collect();
            for t in threads {
                t.join().expect("gzip client");
            }
        })
    });
    assert!(
        server.stats().cache_hits() > 0,
        "repeat gzip fetches must hit the variant cache"
    );
    let (p50, p99) = latency_percentiles(server.stats());
    report.record_full(
        "net_send_plane/precompressed_hit",
        server.stats().requests(),
        t0.elapsed().as_secs_f64(),
        false,
        None,
        p50,
        p99,
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    g.finish();
    match report.write() {
        Ok(path) => println!("recorded net_send_plane scenarios to {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}

const DYN_CLIENTS: usize = 8;
const DYN_REQS: usize = 40;

/// Reads one chunked keep-alive response off `reader` — status
/// asserted 200, header scanned past, chunk frames consumed through
/// the terminator — and returns the decoded body length.
fn read_chunked_keepalive(reader: &mut impl std::io::BufRead) -> usize {
    let mut line = String::new();
    let mut first = true;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read header line");
        if first {
            assert!(line.starts_with("HTTP/1.1 200 OK"), "{line}");
            first = false;
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut total = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read chunk size");
        let n = usize::from_str_radix(line.trim(), 16).expect("hex chunk size");
        // Chunk payload plus its trailing CRLF (the terminator's blank
        // line for the zero chunk).
        let mut buf = vec![0u8; n + 2];
        std::io::Read::read_exact(reader, &mut buf).expect("read chunk");
        if n == 0 {
            return total;
        }
        total += n;
    }
}

/// One keep-alive client issuing small dynamic requests; every
/// response streams back from the persistent worker pool as chunked
/// frames.
fn client_dynamic(addr: SocketAddr, id: usize, requests: usize) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.set_nodelay(true).ok();
    let mut writer = s.try_clone().expect("clone");
    let mut reader = std::io::BufReader::with_capacity(16 * 1024, s);
    for r in 0..requests {
        writer
            .write_all(format!("GET /app/{id}/{r} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())
            .expect("send");
        assert!(
            read_chunked_keepalive(&mut reader) > 0,
            "empty dynamic body"
        );
    }
}

/// The dynamic tier under load: small responses produced by the
/// built-in echo worker, streamed back as chunked frames through the
/// shard's streaming completion path. What this measures is the full
/// request → worker checkout → frame relay → chunked encode loop, not
/// the worker's own compute.
fn bench_dynamic_small(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_dynamic");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements((DYN_CLIENTS * DYN_REQS) as u64));
    let mut report = BenchReport::new();

    let root = docroot("dynamic-small");
    let cfg = NetConfig::builder(&root)
        .event_loops(1)
        .dynamic_prefix("/app/")
        .build()
        .expect("consistent config");
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();
    let t0 = std::time::Instant::now();
    g.bench_function("dynamic_small", |b| {
        b.iter(|| {
            let threads: Vec<_> = (0..DYN_CLIENTS)
                .map(|id| std::thread::spawn(move || client_dynamic(addr, id, DYN_REQS)))
                .collect();
            for t in threads {
                t.join().expect("dynamic client");
            }
        })
    });
    assert!(server.stats().dynamic_requests() > 0);
    assert_eq!(
        server.stats().worker_respawns(),
        0,
        "the echo workers must survive the whole run"
    );
    let wait = server.stats().worker_wait().summary();
    println!(
        "dynamic_small: {} requests, worker-wait p50 {:.3} ms / p99 {:.3} ms",
        server.stats().dynamic_requests(),
        wait.p50_nanos as f64 / 1e6,
        wait.p99_nanos as f64 / 1e6,
    );
    let (p50, p99) = latency_percentiles(server.stats());
    report.record_full(
        "net_dynamic/dynamic_small",
        server.stats().dynamic_requests(),
        t0.elapsed().as_secs_f64(),
        false,
        None,
        p50,
        p99,
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    g.finish();
    match report.write() {
        Ok(path) => println!("recorded net_dynamic scenarios to {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}

const CHURN_CLIENTS: usize = 8;
const CHURN_CONNS_PER_CLIENT: usize = 40;

/// One churn client: short-lived connections, one HTTP/1.0 request
/// each — every request pays the full connection-setup cost, so the
/// accept path dominates what this measures.
fn client_churn(addr: SocketAddr, conns: usize) {
    use std::io::Read;
    for _ in 0..conns {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /f0.html HTTP/1.0\r\n\r\n").expect("send");
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).expect("read");
        assert!(resp.starts_with(b"HTTP/1.1 200 OK\r\n"));
    }
}

fn storm_churn(addr: SocketAddr) {
    let threads: Vec<_> = (0..CHURN_CLIENTS)
        .map(|_| std::thread::spawn(move || client_churn(addr, CHURN_CONNS_PER_CLIENT)))
        .collect();
    for t in threads {
        t.join().expect("churn client");
    }
}

/// Connection-setup rate: many short-lived connections against the
/// single acceptor thread (every accept funneled through one thread
/// and dealt over a channel) versus per-shard `SO_REUSEPORT` listeners
/// (the kernel load-balances accepts straight into the shards).
fn bench_accept_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_accept_rate");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements(
        (CHURN_CLIENTS * CHURN_CONNS_PER_CLIENT) as u64,
    ));
    let mut report = BenchReport::new();

    for mode in [AcceptMode::Single, AcceptMode::ReusePort] {
        let root = docroot("accept-rate");
        let server = Server::start(
            "127.0.0.1:0",
            NetConfig::builder(&root)
                .event_loops(4)
                .accept_mode(mode)
                .build()
                .unwrap(),
        )
        .unwrap();
        let resolved = server.accept_mode();
        if mode == AcceptMode::ReusePort && resolved != AcceptModeKind::ReusePort {
            // Platform floor degraded the mode: the second scenario
            // would re-measure the first.
            server.stop();
            let _ = std::fs::remove_dir_all(&root);
            continue;
        }
        let addr = server.addr();
        let t0 = std::time::Instant::now();
        g.bench_function(&format!("short_conns_4_shards_{}", resolved.name()), |b| {
            b.iter(|| storm_churn(addr))
        });
        let (p50, p99) = latency_percentiles(server.stats());
        report.record_full(
            &format!("net_accept_rate/short_conns_4_shards_{}", resolved.name()),
            server.stats().requests(),
            t0.elapsed().as_secs_f64(),
            true,
            None,
            p50,
            p99,
        );
        println!(
            "accept mode {}: {} accepted, backpressure events {}",
            resolved.name(),
            server.stats().accepted(),
            server.stats().accept_backpressure(),
        );
        server.stop();
        let _ = std::fs::remove_dir_all(&root);
    }
    g.finish();
    match report.write() {
        Ok(path) => println!("recorded net_accept_rate scenarios to {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}

const IDLE_CONNS: usize = 960;
const IDLE_ACTIVE_CLIENTS: usize = 64;
const IDLE_REQS: usize = 25;

/// The workload the epoll backend exists for: a shard whose watch set
/// is dominated by idle keep-alive connections (64 active among 1024
/// registered). The poll backend hands all ~1k descriptors to the
/// kernel on every wait; the epoll backend pays only for the ready
/// ones, so its per-request cost stays flat as the idle population
/// grows.
fn bench_many_idle_connections(c: &mut Criterion) {
    // Server + client ends live in this one process: ~2x descriptors.
    if !ensure_fd_limit(((IDLE_CONNS + IDLE_ACTIVE_CLIENTS) * 2 + 256) as u64) {
        eprintln!("skipping net_many_idle: cannot raise RLIMIT_NOFILE");
        return;
    }
    let mut g = c.benchmark_group("net_many_idle");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.throughput(Throughput::Elements(
        (IDLE_ACTIVE_CLIENTS * IDLE_REQS) as u64,
    ));

    let backends: &[BackendChoice] = if resolve(BackendChoice::Epoll) == BackendKind::Epoll {
        &[BackendChoice::Epoll, BackendChoice::Poll]
    } else {
        &[BackendChoice::Poll]
    };
    for &choice in backends {
        let root = docroot("many-idle");
        let server = Server::start(
            "127.0.0.1:0",
            NetConfig::builder(&root)
                .event_loops(1)
                .backend(choice)
                // The idle population must survive the whole
                // measurement; reaping is its own benchmark-distorting
                // event, so it is off here.
                .idle_timeout(None)
                .build()
                .unwrap(),
        )
        .unwrap();
        let addr = server.addr();
        let kind = server.backend();

        // Park the idle population: each completes one request (so it
        // is fully registered, in Reading state) and then goes silent.
        let idle: Vec<TcpStream> = (0..IDLE_CONNS)
            .map(|_| {
                let mut s = TcpStream::connect(addr).expect("idle connect");
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                s.write_all(b"GET /f0.html HTTP/1.1\r\nHost: b\r\n\r\n")
                    .expect("idle send");
                let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
                let mut body = Vec::new();
                read_keepalive_response(&mut reader, &mut body);
                s
            })
            .collect();

        g.bench_function(
            &format!(
                "{}_active_{IDLE_ACTIVE_CLIENTS}_among_{}",
                kind.name(),
                IDLE_CONNS + IDLE_ACTIVE_CLIENTS
            ),
            |b| {
                b.iter(|| {
                    let threads: Vec<_> = (0..IDLE_ACTIVE_CLIENTS)
                        .map(|id| std::thread::spawn(move || client_run(addr, id, IDLE_REQS)))
                        .collect();
                    for t in threads {
                        t.join().expect("active client");
                    }
                })
            },
        );
        println!(
            "{} backend: {} conns registered idle, events/wait gauge {:.2}",
            kind.name(),
            idle.len(),
            server.stats().events_per_wait(),
        );
        drop(idle);
        server.stop();
        let _ = std::fs::remove_dir_all(&root);
    }
    g.finish();
}

criterion_group!(
    net_throughput,
    bench_net_throughput,
    bench_accept_rate,
    bench_large_file,
    bench_send_plane,
    bench_dynamic_small,
    bench_many_idle_connections
);
criterion_main!(net_throughput);
