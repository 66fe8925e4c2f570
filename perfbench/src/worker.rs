//! The benchmark's own dynamic-tier worker, run as
//! `perfbench --worker <seed> <pid-file>` through the server's public
//! `dynamic_command`. It speaks the worker protocol (`GET <path>` in,
//! `DATA <len>` frames and `END` out) and answers `/app/d<id>` with the
//! seed-determined body of [`crate::site::dyn_body`], split into one to
//! three frames. It appends its pid to `pid-file` so the benchmark can
//! read its CPU time.

use std::io::{self, BufRead, Write};
use std::path::Path;

use crate::site;

pub fn run(seed: u64, pid_file: &Path) -> io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(pid_file)?;
    writeln!(f, "{}", std::process::id())?;
    drop(f);
    let stdin = io::stdin().lock();
    let mut out = io::BufWriter::new(io::stdout().lock());
    let mut body = Vec::new();
    for line in stdin.lines() {
        let line = line?;
        let id = line
            .strip_prefix("GET /app/d")
            .and_then(|s| s.trim().parse::<u32>().ok());
        let Some(id) = id else {
            // Not a path this worker serves: an empty, clean response.
            out.write_all(b"END\n")?;
            out.flush()?;
            continue;
        };
        let (key, len, frames) = site::dyn_body(seed, id);
        body.resize(len as usize, 0);
        site::fill(key, 0, &mut body);
        let step = body.len().div_ceil(frames as usize);
        for chunk in body.chunks(step) {
            writeln!(out, "DATA {}", chunk.len())?;
            out.write_all(chunk)?;
        }
        out.write_all(b"END\n")?;
        out.flush()?;
    }
    Ok(())
}
