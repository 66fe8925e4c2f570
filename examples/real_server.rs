//! A real AMPED web server on real sockets: creates a docroot, starts the
//! `flash-net` server, fetches pages over loopback TCP, and prints the
//! helper/cache statistics.
//!
//! Run with: `cargo run --example real_server`

use std::io::{Read, Write};
use std::net::TcpStream;

use flash_repro::net::{NetConfig, Server};

fn fetch(addr: std::net::SocketAddr, req: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(req.as_bytes()).expect("send");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read");
    String::from_utf8_lossy(&out).into_owned()
}

fn main() -> std::io::Result<()> {
    // Build a small docroot under the system temp directory.
    let root = std::env::temp_dir().join(format!("flash-demo-{}", std::process::id()));
    std::fs::create_dir_all(root.join("papers"))?;
    std::fs::write(
        root.join("index.html"),
        "<html><body><h1>Flash (AMPED) reproduction</h1></body></html>\n",
    )?;
    std::fs::write(
        root.join("papers/flash.html"),
        "<html><body>Pai, Druschel, Zwaenepoel — USENIX 1999</body></html>\n",
    )?;

    // The builder is the only way to a config: the documented
    // defaults, plus a consistency check before any socket is opened.
    let cfg = NetConfig::builder(&root)
        .build()
        .expect("consistent config");
    let server = Server::start("127.0.0.1:0", cfg)?;
    let addr = server.addr();
    println!("AMPED server listening on http://{addr}/ (docroot {root:?})");

    for path in ["/", "/papers/flash.html", "/papers/flash.html", "/missing"] {
        let resp = fetch(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"));
        let status = resp.lines().next().unwrap_or("");
        let body_len = resp.split("\r\n\r\n").nth(1).map(|b| b.len()).unwrap_or(0);
        println!("GET {path:<22} -> {status} ({body_len} body bytes)");
    }

    let stats = server.stats();
    println!(
        "requests: {}, cache hits: {}, helper jobs (disk reads): {}, writev calls: {}",
        stats.requests(),
        stats.cache_hits(),
        stats.helper_jobs(),
        stats.writev_calls(),
    );
    println!(
        "event-loop shards: {} (per-shard accepted: {:?})",
        stats.per_shard().len(),
        stats
            .per_shard()
            .iter()
            .map(|s| s.accepted.load(std::sync::atomic::Ordering::Relaxed))
            .collect::<Vec<_>>(),
    );
    println!("note: the repeated fetch was a cache hit — no helper involved");

    // Exit the way a production deploy would: drain — stop accepting,
    // finish anything in flight (bounded by `NetConfig::drain_timeout`),
    // then tear down. A long-running deployment would drive this from
    // signals instead: `Signals::install_default()` turns
    // SIGTERM/SIGHUP/SIGINT into `drain()` / `reload_docroot()` /
    // `stop_now()` calls — see `examples/graceful_restart.rs`.
    server.drain();
    println!("drained cleanly: all connections served to completion");
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
