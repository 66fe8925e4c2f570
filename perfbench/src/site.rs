//! Seeded inputs: the docroot (paths, sizes, byte content), the request
//! sequence with its mix of request kinds, and the dynamic bodies the
//! benchmark's own worker returns. Everything here is a pure function
//! of the seed, so the generator can re-derive any expected response
//! byte without keeping the docroot in memory.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use flash_workload::{Trace, TraceConfig};

/// splitmix64: the mixing function behind every seeded value here.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes two values into one (order matters).
pub fn mix2(a: u64, b: u64) -> u64 {
    mix(mix(a) ^ b)
}

/// Writes bytes `[offset, offset + out.len())` of the content stream
/// keyed by `key` into `out`. Byte `p` of the stream is byte `p % 8`
/// (little-endian) of `mix2(key, p / 8)`.
pub fn fill(key: u64, offset: u64, out: &mut [u8]) {
    let mut p = offset;
    let mut i = 0;
    while i < out.len() {
        let word = mix2(key, p / 8).to_le_bytes();
        let lo = (p % 8) as usize;
        let n = (8 - lo).min(out.len() - i);
        out[i..i + n].copy_from_slice(&word[lo..lo + n]);
        i += n;
        p += n as u64;
    }
}

/// Whether `data` equals the content stream `key` at `offset`.
pub fn matches(key: u64, offset: u64, data: &[u8], scratch: &mut Vec<u8>) -> bool {
    const STEP: usize = 16 * 1024;
    scratch.resize(STEP, 0);
    let mut done = 0;
    while done < data.len() {
        let n = STEP.min(data.len() - done);
        fill(key, offset + done as u64, &mut scratch[..n]);
        if scratch[..n] != data[done..done + n] {
            return false;
        }
        done += n;
    }
    true
}

/// Which trace a docroot is built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// The Owlnet trace truncated to an 8 MiB dataset (fits in cache).
    Owlnet8,
    /// The full CS trace (200 MiB, larger than the 64 MiB cache).
    Cs,
}

pub const OWLNET_DATASET: u64 = 8 * 1024 * 1024;

/// Trace seeds tried before the last one is taken as it is.
const MAX_TRACE_TRIES: u64 = 64;

impl SiteKind {
    /// Accepted mean transfer of the request log, bytes: the middle of
    /// the preset's per-seed distribution (about half of all seeds).
    pub fn mean_band(self) -> (f64, f64) {
        match self {
            SiteKind::Owlnet8 => (9.0 * 1024.0, 12.0 * 1024.0),
            SiteKind::Cs => (26.0 * 1024.0, 32.0 * 1024.0),
        }
    }
}

/// One docroot file.
pub struct File {
    pub path: String,
    pub size: u64,
    pub key: u64,
}

/// The generated docroot and the trace's request log over it.
pub struct Site {
    pub root: PathBuf,
    pub files: Vec<File>,
    /// Request log: indices into `files`, in trace order.
    pub log: Vec<u32>,
    pub seed: u64,
    /// Trace seeds drawn until one fell inside the mean-transfer band.
    pub trace_tries: u64,
}

impl Site {
    /// Synthesizes the trace for `seed` and writes its files under
    /// `root` (created; must not exist yet).
    ///
    /// File popularity is drawn independently of size, so a few seeds
    /// put a multi-MiB file among the hottest and the log's mean
    /// transfer jumps several-fold; such a run measures the client's
    /// byte copying, not the server. The workload is therefore the
    /// trace family conditioned on the mean transfer: the trace seed is
    /// the first of `seed`, `mix2(seed, 1)`, `mix2(seed, 2)`, ... whose
    /// log has its mean transfer inside [`SiteKind::mean_band`].
    pub fn generate(kind: SiteKind, seed: u64, root: &Path) -> io::Result<Site> {
        let (lo, hi) = kind.mean_band();
        let mut tries = 0u64;
        let trace = loop {
            let trace_seed = if tries == 0 { seed } else { mix2(seed, tries) };
            tries += 1;
            let t = match kind {
                SiteKind::Owlnet8 => Trace::generate(&TraceConfig::owlnet(), trace_seed)
                    .truncate_to_dataset(OWLNET_DATASET),
                SiteKind::Cs => Trace::generate(&TraceConfig::cs(), trace_seed),
            };
            let mean = t.mean_transfer_bytes();
            if (lo..=hi).contains(&mean) || tries == MAX_TRACE_TRIES {
                break t;
            }
        };
        let files: Vec<File> = trace
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| File {
                path: s.path.clone(),
                size: s.size,
                key: mix2(seed, 0x1000_0000 + i as u64),
            })
            .collect();
        fs::create_dir_all(root)?;
        let mut buf = vec![0u8; 256 * 1024];
        for f in &files {
            let dest = root.join(f.path.trim_start_matches('/'));
            if let Some(dir) = dest.parent() {
                fs::create_dir_all(dir)?;
            }
            let mut out = io::BufWriter::new(fs::File::create(&dest)?);
            let mut off = 0;
            while off < f.size {
                let n = (f.size - off).min(buf.len() as u64) as usize;
                fill(f.key, off, &mut buf[..n]);
                out.write_all(&buf[..n])?;
                off += n as u64;
            }
            out.flush()?;
        }
        Ok(Site {
            root: root.to_path_buf(),
            files,
            log: trace.requests.iter().map(|&r| r as u32).collect(),
            seed,
            trace_tries: tries,
        })
    }

    /// Digest of every path, size and content key.
    pub fn digest(&self) -> u64 {
        self.files.iter().fold(mix(self.seed), |h, f| {
            let p = f.path.bytes().fold(h, |a, b| mix2(a, b as u64));
            mix2(mix2(p, f.size), f.key)
        })
    }

    pub fn dataset_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    pub fn mean_transfer(&self) -> f64 {
        self.log
            .iter()
            .map(|&f| self.files[f as usize].size)
            .sum::<u64>() as f64
            / self.log.len() as f64
    }
}

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Plain `GET` of a file: 200 with the whole body.
    Get,
    /// `GET` with `If-None-Match` carrying the ETag seen earlier for the
    /// file: 304, no body.
    Revalidate,
    /// `GET` with `Range: bytes=a-b`: 206 with that window.
    Range(u64, u64),
    /// `GET /app/d<id>` on the dynamic tier: 200, chunked.
    Dynamic(u32),
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub kind: Kind,
    pub file: u32,
    /// Sends `Connection: close`; the generator reconnects afterwards.
    pub close: bool,
}

/// Distinct dynamic paths the mix draws from.
pub const DYN_IDS: u64 = 512;

/// The request-kind mix of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Fraction of dynamic GETs.
    pub dynamic: f64,
    /// Fraction of `If-None-Match` revalidations.
    pub revalidate: f64,
    /// Fraction of single-window `Range` requests.
    pub range: f64,
    /// Fraction of `Connection: close` plain GETs.
    pub close: f64,
}

impl Mix {
    pub const STATIC: Mix = Mix {
        dynamic: 0.0,
        revalidate: 0.0,
        range: 0.0,
        close: 0.0,
    };
    pub const MIXED: Mix = Mix {
        dynamic: 0.20,
        revalidate: 0.10,
        range: 0.05,
        close: 0.05,
    };

    pub fn has_dynamic(&self) -> bool {
        self.dynamic > 0.0
    }
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The request sequence: request `seq` is a pure function of the seed
/// and `seq`, so it is the same however the phases slice it.
pub struct Sequence<'a> {
    pub site: &'a Site,
    pub mix: Mix,
    /// Revalidations target files requested during the warm-up (the
    /// first `warm` requests), whose ETags the generator has seen.
    pub warm: u64,
}

impl Sequence<'_> {
    pub fn req(&self, seq: u64) -> Req {
        let log = &self.site.log;
        let file = log[(seq % log.len() as u64) as usize];
        let plain = Req {
            kind: Kind::Get,
            file,
            close: false,
        };
        if seq < self.warm {
            return plain;
        }
        let h = mix2(self.site.seed ^ 0x005E_ED0F_4D1C, seq);
        let u = unit(h);
        let m = self.mix;
        let h2 = mix(h);
        if u < m.dynamic {
            return Req {
                kind: Kind::Dynamic((h2 % DYN_IDS) as u32),
                file,
                close: false,
            };
        }
        if u < m.dynamic + m.revalidate {
            let seen = log[(h2 % self.warm.min(log.len() as u64)) as usize];
            return Req {
                kind: Kind::Revalidate,
                file: seen,
                close: false,
            };
        }
        if u < m.dynamic + m.revalidate + m.range {
            let size = self.site.files[file as usize].size;
            if size < 2 {
                return plain;
            }
            let a = h2 % (size - 1);
            let len = 1 + mix(h2) % (size - a).min(64 * 1024);
            return Req {
                kind: Kind::Range(a, a + len - 1),
                file,
                close: false,
            };
        }
        if u < m.dynamic + m.revalidate + m.range + m.close {
            return Req {
                close: true,
                ..plain
            };
        }
        plain
    }

    /// Digest of the first `n` requests.
    pub fn digest(&self, n: u64) -> u64 {
        (0..n).fold(mix(self.warm), |h, s| {
            let r = self.req(s);
            let k = match r.kind {
                Kind::Get => 1,
                Kind::Revalidate => 2,
                Kind::Range(a, b) => mix2(a, b),
                Kind::Dynamic(id) => mix2(3, id as u64),
            };
            mix2(mix2(h, r.file as u64 * 2 + r.close as u64), k)
        })
    }
}

/// The body the benchmark's worker returns for dynamic id `id`:
/// `(content key, length, frame count)`.
pub fn dyn_body(seed: u64, id: u32) -> (u64, u64, u64) {
    let h = mix2(seed ^ 0xD1A_B0D1, id as u64);
    (h, 64 + h % 6000, 1 + (h >> 32) % 3)
}

/// Poisson arrival offsets (ns from phase start) at `rate` per second
/// for `dur_ns`, seeded by the run seed and the phase's tag.
pub fn arrivals(seed: u64, tag: u64, rate: f64, dur_ns: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * dur_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mean = 1e9 / rate;
    let mut t = 0.0f64;
    let mut i = 0u64;
    loop {
        let u = unit(mix2(mix2(seed, tag), i)).max(1e-12);
        t += -u.ln() * mean;
        if t >= dur_ns as f64 {
            return out;
        }
        out.push(t as u64);
        i += 1;
    }
}
