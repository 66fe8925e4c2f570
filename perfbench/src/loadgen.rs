//! The open-loop load generator: one thread, at most `nproc` keep-alive
//! connections, pipelined HTTP/1.1, Poisson arrivals. Every request is
//! timed from its *scheduled* send time to the arrival of its last body
//! byte, so a stall is charged to every request it delays. Every
//! response is parsed by the benchmark's own HTTP/1.1 reader (status,
//! `Content-Length` or chunked framing, `Content-Range`) and its body
//! compared with the seed-derived content.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::site::{self, Kind, Req, Sequence};
use crate::spans::Spans;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, n: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// `ppoll` with a nanosecond timeout (the server's `EventBackend::wait`
/// takes whole milliseconds, too coarse to pace arrivals).
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `PollFd`
    // (layout of `struct pollfd`) of the length passed; `ts` outlives
    // the call; a null sigmask leaves the signal mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Lowers this thread's timer slack to 1 ns so sub-millisecond waits
/// wake on time instead of up to 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Moves the calling thread to `SCHED_FIFO` priority 1 (`on`) or back
/// to `SCHED_OTHER`. A generator that waits behind the server's threads
/// for a CPU would charge its own scheduling delay to the server; with
/// priority it runs as an independent client would. Returns whether the
/// change was allowed.
pub fn set_realtime(on: bool) -> bool {
    let (policy, prio) = if on { (1, 1) } else { (0, 0) };
    // SAFETY: pid 0 names the calling thread; `prio` is a valid
    // `struct sched_param` (a single int) that outlives the call.
    unsafe { sched_setscheduler(0, policy, &prio) == 0 }
}

/// Spinning threads at `SCHED_IDLE`, one per CPU, that keep every CPU
/// out of its idle state while the benchmark runs. Under a hypervisor a
/// halted virtual CPU takes tens to hundreds of microseconds to wake,
/// and that delay, not the server, would set the measured latency. Any
/// runnable thread preempts them at once. Stopped and joined on drop.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start(n: usize) -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .filter_map(|i| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("perfbench-awake{i}"))
                    .spawn(move || {
                        const SCHED_IDLE: i32 = 5;
                        // SAFETY: as in `set_realtime`; lowering the
                        // calling thread's own policy needs no privilege.
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &0) };
                        // A plain loop, not `spin_loop()`: a PAUSE loop
                        // can make the hypervisor deschedule the CPU.
                        let mut x = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            for _ in 0..1000 {
                                x = std::hint::black_box(x.wrapping_add(1));
                            }
                        }
                    })
                    .ok()
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// How long the generator waits for outstanding responses after a
/// phase's last scheduled send before counting them as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Marks a failed request in a latency vector: it misses every limit.
pub const FAILED: u64 = u64::MAX;

struct Pending {
    seq: u64,
    sched: Instant,
    req: Req,
}

enum Framing {
    Length(u64),
    Chunked,
    Empty,
}

struct Head {
    status: u16,
    len: usize,
    framing: Framing,
    etag: Option<String>,
    content_range: Option<String>,
    close: bool,
    /// Body bytes verified (and dropped) so far.
    seen: u64,
    /// Everything checked so far matched.
    ok: bool,
}

/// Progress on the response at the front of the buffer. `used` bytes
/// were consumed: the header once parsed, body bytes once verified, so
/// the generator's buffers stay a fixed size whatever the body size.
enum Parsed {
    Incomplete { used: usize },
    Done { used: usize, ok: bool },
    Broken,
}

struct Slot {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    out_off: usize,
    queued: VecDeque<Pending>,
    inflight: VecDeque<Pending>,
    rbuf: Vec<u8>,
    rstart: usize,
    rend: usize,
    head: Option<Head>,
    /// A `Connection: close` request is in flight: nothing more may be
    /// pipelined behind it on this connection.
    closing: bool,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stream: None,
            out: Vec::new(),
            out_off: 0,
            queued: VecDeque::new(),
            inflight: VecDeque::new(),
            rbuf: vec![0; 256 * 1024],
            rstart: 0,
            rend: 0,
            head: None,
            closing: false,
        }
    }

    fn reset_conn(&mut self) {
        self.stream = None;
        self.out.clear();
        self.out_off = 0;
        self.rstart = 0;
        self.rend = 0;
        self.head = None;
        self.closing = false;
    }
}

/// What one phase produced.
#[derive(Default)]
pub struct PhaseOut {
    /// Per attempted request: latency in ns, or [`FAILED`].
    pub lat_ns: Vec<u64>,
    /// Per sent request: how late the generator handed it to the socket.
    pub lag_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Requests outstanding when the send window closed.
    pub backlog_at_end: u64,
    /// Stopped early: so many requests were already late that the
    /// phase's latency percentile could no longer meet its limit.
    pub aborted: bool,
    /// Dynamic requests and `Connection: close` requests completed.
    pub dynamic: u64,
    pub closes: u64,
    /// Body bytes received.
    pub body_bytes: u64,
    /// Wall time from the first scheduled send to the last completion.
    pub wall: Duration,
}

impl PhaseOut {
    fn complete(&mut self, p: &Pending, ok: bool, now: Instant, spans: &mut Option<(Spans, u64)>) {
        if ok {
            self.lat_ns
                .push(now.saturating_duration_since(p.sched).as_nanos() as u64);
            if matches!(p.req.kind, Kind::Dynamic(_)) {
                self.dynamic += 1;
            }
            if p.req.close {
                self.closes += 1;
            }
        } else {
            self.lat_ns.push(FAILED);
            self.failed += 1;
        }
        if let Some((s, parent)) = spans {
            let parent = *parent;
            s.record(p.seq, parent, "request", p.sched, now);
        }
    }
}

/// A phase's shape: arrival rate and length, and an optional early
/// stop once more than a tenth of the planned requests exceeded
/// `late_ns`.
pub struct PhasePlan {
    pub tag: u64,
    pub rate: f64,
    pub dur: Duration,
    pub abort_late_ns: Option<u64>,
}

pub struct Gen<'a> {
    addr: SocketAddr,
    seq: &'a Sequence<'a>,
    slots: Vec<Slot>,
    etags: Vec<Option<String>>,
    scratch: Vec<u8>,
    next_seq: u64,
    pub conns_opened: u64,
    /// Span recorder and the current phase's span id (traced run).
    pub spans: Option<(Spans, u64)>,
}

impl<'a> Gen<'a> {
    pub fn new(addr: SocketAddr, seq: &'a Sequence<'a>, conns: usize) -> Gen<'a> {
        Gen {
            addr,
            seq,
            slots: (0..conns).map(|_| Slot::new()).collect(),
            etags: vec![None; seq.site.files.len()],
            scratch: Vec::new(),
            next_seq: 0,
            conns_opened: 0,
            spans: None,
        }
    }

    /// Hands already-connected streams to the slots, in order;
    /// `opened` counts every connection made to get them.
    pub fn adopt(&mut self, streams: Vec<TcpStream>, opened: u64) -> io::Result<()> {
        for (slot, st) in self.slots.iter_mut().zip(streams) {
            st.set_nodelay(true)?;
            st.set_nonblocking(true)?;
            slot.stream = Some(st);
        }
        self.conns_opened += opened;
        Ok(())
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.next_seq
    }

    /// Closes every connection (before the server is stopped).
    pub fn close_all(&mut self) {
        for s in &mut self.slots {
            s.reset_conn();
        }
    }

    /// Runs one open-loop phase to completion: releases requests on the
    /// Poisson schedule, then waits for every outstanding response.
    pub fn run(&mut self, plan: &PhasePlan) -> PhaseOut {
        let arr = site::arrivals(
            self.seq.site.seed,
            plan.tag,
            plan.rate,
            plan.dur.as_nanos() as u64,
        );
        let mut out = PhaseOut::default();
        let late_cap = (arr.len() as u64 / 10).max(50);
        let mut late = 0u64;
        let mut next = 0usize;
        let mut drain_deadline = None;
        let t0 = Instant::now();
        let mut last_done = t0;
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.slots.len());
        loop {
            let now = Instant::now();
            let elapsed = now.duration_since(t0).as_nanos() as u64;
            while next < arr.len() && arr[next] <= elapsed {
                let seq = self.next_seq;
                self.next_seq += 1;
                let slot = (seq % self.slots.len() as u64) as usize;
                self.slots[slot].queued.push_back(Pending {
                    seq,
                    sched: t0 + Duration::from_nanos(arr[next]),
                    req: self.seq.req(seq),
                });
                out.attempted += 1;
                next += 1;
            }
            if late > late_cap && next < arr.len() {
                out.aborted = true;
                next = arr.len();
            }
            if next == arr.len() && drain_deadline.is_none() {
                out.backlog_at_end = self
                    .slots
                    .iter()
                    .map(|s| (s.queued.len() + s.inflight.len()) as u64)
                    .sum();
                drain_deadline = Some(now + DRAIN_TIMEOUT);
            }
            for i in 0..self.slots.len() {
                self.pump(i, now, &mut out);
            }
            let idle = self
                .slots
                .iter()
                .all(|s| s.queued.is_empty() && s.inflight.is_empty());
            if next == arr.len() && idle {
                break;
            }
            if drain_deadline.is_some_and(|d| now >= d) {
                for i in 0..self.slots.len() {
                    self.fail_conn(i, now, &mut out);
                    let s = &mut self.slots[i];
                    while let Some(p) = s.queued.pop_front() {
                        out.complete(&p, false, now, &mut self.spans);
                    }
                }
                break;
            }
            let timeout = if next < arr.len() {
                Duration::from_nanos(arr[next].saturating_sub(elapsed))
            } else {
                Duration::from_millis(1)
            };
            fds.clear();
            for s in &self.slots {
                let (fd, events) = match &s.stream {
                    Some(st) => {
                        let mut ev = POLLIN;
                        if s.out_off < s.out.len() {
                            ev |= POLLOUT;
                        }
                        (st.as_raw_fd(), ev)
                    }
                    None => (-1, 0),
                };
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            wait(&mut fds, timeout);
            let now = Instant::now();
            for (i, fd) in fds.iter().enumerate() {
                if fd.revents != 0 {
                    let before = out.lat_ns.len();
                    self.receive(i, now, &mut out);
                    if out.lat_ns.len() > before {
                        last_done = now;
                        if let Some(limit) = plan.abort_late_ns {
                            late +=
                                out.lat_ns[before..].iter().filter(|&&l| l > limit).count() as u64;
                        }
                    }
                }
            }
        }
        out.wall = last_done.saturating_duration_since(t0);
        out
    }

    /// Connects the slot if it has work, moves queued requests into the
    /// send buffer (never past a `Connection: close` request), writes.
    fn pump(&mut self, i: usize, now: Instant, out: &mut PhaseOut) {
        let s = &mut self.slots[i];
        if s.stream.is_none() {
            if s.queued.is_empty() {
                return;
            }
            match TcpStream::connect(self.addr).and_then(|st| {
                st.set_nodelay(true)?;
                st.set_nonblocking(true)?;
                Ok(st)
            }) {
                Ok(st) => {
                    s.stream = Some(st);
                    self.conns_opened += 1;
                }
                Err(_) => {
                    while let Some(p) = s.queued.pop_front() {
                        out.complete(&p, false, now, &mut self.spans);
                    }
                    return;
                }
            }
        }
        while !s.closing {
            let Some(p) = s.queued.pop_front() else { break };
            write_request(&mut s.out, self.seq, &self.etags, &p.req);
            out.lag_ns
                .push(now.saturating_duration_since(p.sched).as_nanos() as u64);
            s.closing = p.req.close;
            s.inflight.push_back(p);
        }
        let mut broken = false;
        if let Some(st) = s.stream.as_mut() {
            while s.out_off < s.out.len() {
                match st.write(&s.out[s.out_off..]) {
                    Ok(n) => s.out_off += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if s.out_off == s.out.len() {
                s.out.clear();
                s.out_off = 0;
            }
        }
        if broken {
            self.fail_conn(i, now, out);
        }
    }

    /// Fails every in-flight request on the slot and drops the
    /// connection; queued requests go out on a fresh one.
    fn fail_conn(&mut self, i: usize, now: Instant, out: &mut PhaseOut) {
        let s = &mut self.slots[i];
        while let Some(p) = s.inflight.pop_front() {
            out.complete(&p, false, now, &mut self.spans);
        }
        s.reset_conn();
    }

    /// Reads what the connection has and completes every response it
    /// finishes, alternating reads and parsing so the receive buffer
    /// never grows.
    fn receive(&mut self, i: usize, now: Instant, out: &mut PhaseOut) {
        loop {
            let (eof, full) = self.fill(i);
            if !self.parse_responses(i, now, out) {
                return;
            }
            if eof {
                self.fail_conn(i, now, out);
                return;
            }
            if !full {
                return;
            }
        }
    }

    /// Reads into the slot's buffer until the socket would block or the
    /// buffer is full. Returns (peer closed or errored, buffer full).
    fn fill(&mut self, i: usize) -> (bool, bool) {
        let s = &mut self.slots[i];
        let Some(st) = s.stream.as_mut() else {
            return (false, false);
        };
        if s.rstart > 0 {
            s.rbuf.copy_within(s.rstart..s.rend, 0);
            s.rend -= s.rstart;
            s.rstart = 0;
        }
        while s.rend < s.rbuf.len() {
            match st.read(&mut s.rbuf[s.rend..]) {
                Ok(0) => return (true, false),
                Ok(n) => s.rend += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (false, false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return (true, false),
            }
        }
        (false, true)
    }

    /// Completes the responses buffered on slot `i`. Returns false when
    /// the connection was dropped (broken framing or a finished
    /// `Connection: close` exchange).
    fn parse_responses(&mut self, i: usize, now: Instant, out: &mut PhaseOut) -> bool {
        loop {
            let s = &mut self.slots[i];
            let Some(p) = s.inflight.front() else { break };
            let req = p.req;
            let parsed = parse(
                &s.rbuf[s.rstart..s.rend],
                &mut s.head,
                &req,
                self.seq,
                &mut self.scratch,
            );
            match parsed {
                Parsed::Incomplete { used } => {
                    s.rstart += used;
                    break;
                }
                Parsed::Broken => {
                    self.fail_conn(i, now, out);
                    return false;
                }
                Parsed::Done { used, ok } => {
                    let head = s
                        .head
                        .take()
                        .expect("a finished response has a parsed head");
                    s.rstart += used;
                    let p = s.inflight.pop_front().expect("front was checked above");
                    if ok {
                        out.body_bytes += head.seen;
                        if req.kind == Kind::Get {
                            if let Some(tag) = head.etag {
                                self.etags[req.file as usize].get_or_insert(tag);
                            }
                        }
                    }
                    // A close response must say so and be the last
                    // bytes on the connection.
                    let ok = ok && (!req.close || (head.close && s.rstart == s.rend));
                    out.complete(&p, ok, now, &mut self.spans);
                    if req.close {
                        // The server closes after this response; the
                        // slot reconnects for whatever is queued.
                        self.slots[i].reset_conn();
                        return false;
                    }
                }
            }
        }
        let s = &mut self.slots[i];
        if s.rstart == s.rend {
            s.rstart = 0;
            s.rend = 0;
        }
        true
    }
}

fn write_request(out: &mut Vec<u8>, seq: &Sequence<'_>, etags: &[Option<String>], req: &Req) {
    let path: &str = match req.kind {
        Kind::Dynamic(_) => "",
        _ => &seq.site.files[req.file as usize].path,
    };
    match req.kind {
        Kind::Dynamic(id) => {
            let _ = write!(out, "GET /app/d{id} HTTP/1.1\r\nHost: bench\r\n");
        }
        _ => {
            let _ = write!(out, "GET {path} HTTP/1.1\r\nHost: bench\r\n");
        }
    }
    match req.kind {
        Kind::Revalidate => {
            let tag = etags[req.file as usize].as_deref().unwrap_or("\"unseen\"");
            let _ = write!(out, "If-None-Match: {tag}\r\n");
        }
        Kind::Range(a, b) => {
            let _ = write!(out, "Range: bytes={a}-{b}\r\n");
        }
        _ => {}
    }
    if req.close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// The request bytes of `req`, as the generator sends them.
pub fn request_bytes(seq: &Sequence<'_>, etags: &[Option<String>], req: &Req) -> Vec<u8> {
    let mut v = Vec::new();
    write_request(&mut v, seq, etags, req);
    v
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_head(buf: &[u8]) -> Option<Head> {
    let len = find_header_end(&buf[..buf.len().min(16 * 1024)])?;
    let text = std::str::from_utf8(&buf[..len]).ok();
    let Some(text) = text else {
        return Some(Head {
            status: 0,
            len,
            framing: Framing::Empty,
            etag: None,
            content_range: None,
            close: false,
            seen: 0,
            ok: false,
        });
    };
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|c| c.parse::<u16>().ok())
        .unwrap_or(0);
    let mut head = Head {
        status,
        len,
        framing: Framing::Empty,
        etag: None,
        content_range: None,
        close: false,
        seen: 0,
        ok: true,
    };
    let mut length = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse::<u64>().ok(),
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "etag" => head.etag = Some(value.to_string()),
            "content-range" => head.content_range = Some(value.to_string()),
            "connection" => head.close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    head.framing = if status == 304 {
        Framing::Empty
    } else if chunked {
        Framing::Chunked
    } else {
        match length {
            Some(n) => Framing::Length(n),
            None => Framing::Empty,
        }
    };
    Some(head)
}

/// Decodes a complete chunked body at the front of `buf` (no trailers):
/// `Some((bytes used, decoded body))`, or `None` if more bytes are
/// needed. `Err` on malformed framing.
fn decode_chunked(buf: &[u8]) -> Result<Option<(usize, Vec<u8>)>, ()> {
    let mut pos = 0;
    let mut body = Vec::new();
    loop {
        let Some(eol) = buf[pos..].windows(2).position(|w| w == b"\r\n") else {
            return if buf.len() - pos > 32 {
                Err(())
            } else {
                Ok(None)
            };
        };
        let line = std::str::from_utf8(&buf[pos..pos + eol]).map_err(|_| ())?;
        let size = usize::from_str_radix(line.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| ())?;
        pos += eol + 2;
        if buf.len() < pos + size + 2 {
            return Ok(None);
        }
        if &buf[pos + size..pos + size + 2] != b"\r\n" {
            return Err(());
        }
        if size == 0 {
            return Ok(Some((pos + 2, body)));
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        pos += size + 2;
    }
}

/// Parses and verifies the response at the front of `buf` against the
/// request it answers, consuming what it has checked.
fn parse(
    buf: &[u8],
    head: &mut Option<Head>,
    req: &Req,
    seq: &Sequence<'_>,
    scratch: &mut Vec<u8>,
) -> Parsed {
    let file = &seq.site.files[req.file as usize];
    let mut used = 0;
    if head.is_none() {
        let Some(mut h) = parse_head(buf) else {
            return if buf.len() > 16 * 1024 {
                Parsed::Broken
            } else {
                Parsed::Incomplete { used: 0 }
            };
        };
        h.ok &= match (req.kind, &h.framing) {
            (Kind::Get, Framing::Length(n)) => h.status == 200 && *n == file.size,
            (Kind::Range(a, b), Framing::Length(n)) => {
                h.status == 206
                    && *n == b - a + 1
                    && h.content_range.as_deref() == Some(&format!("bytes {a}-{b}/{}", file.size))
            }
            (Kind::Revalidate, Framing::Empty) => h.status == 304,
            (Kind::Dynamic(_), Framing::Chunked) => h.status == 200,
            _ => false,
        };
        if matches!(h.framing, Framing::Empty) && h.status != 304 && h.status != 0 {
            return Parsed::Broken;
        }
        used = h.len;
        *head = Some(h);
    }
    let h = head.as_mut().expect("set above");
    let body = &buf[used..];
    match h.framing {
        Framing::Empty => Parsed::Done { used, ok: h.ok },
        Framing::Length(n) => {
            let take = (n - h.seen).min(body.len() as u64) as usize;
            let offset = match req.kind {
                Kind::Range(a, _) => a,
                _ => 0,
            };
            if h.ok && !site::matches(file.key, offset + h.seen, &body[..take], scratch) {
                h.ok = false;
            }
            h.seen += take as u64;
            used += take;
            if h.seen == n {
                Parsed::Done { used, ok: h.ok }
            } else {
                Parsed::Incomplete { used }
            }
        }
        Framing::Chunked => match decode_chunked(body) {
            Err(()) => Parsed::Broken,
            Ok(None) => Parsed::Incomplete { used },
            Ok(Some((n, decoded))) => {
                if let Kind::Dynamic(id) = req.kind {
                    let (key, len, _) = site::dyn_body(seq.site.seed, id);
                    h.ok &= decoded.len() as u64 == len && site::matches(key, 0, &decoded, scratch);
                }
                h.seen = decoded.len() as u64;
                Parsed::Done {
                    used: used + n,
                    ok: h.ok,
                }
            }
        },
    }
}

/// Sends `req` on a blocking connection and waits for its verified
/// response (set-up probes). A plain GET's ETag is recorded in `etags`
/// for a later revalidation probe.
pub fn probe(
    stream: &mut TcpStream,
    seq: &Sequence<'_>,
    etags: &mut [Option<String>],
    req: &Req,
) -> Result<(), String> {
    stream
        .write_all(&request_bytes(seq, etags, req))
        .map_err(|e| format!("probe write: {e}"))?;
    let mut buf = vec![0u8; 64 * 1024];
    let mut end = 0;
    let mut head = None;
    let mut scratch = Vec::new();
    loop {
        let n = stream
            .read(&mut buf[end..])
            .map_err(|e| format!("probe read: {e}"))?;
        if n == 0 {
            return Err(format!("probe {req:?}: connection closed early"));
        }
        end += n;
        match parse(&buf[..end], &mut head, req, seq, &mut scratch) {
            Parsed::Incomplete { used } => {
                buf.copy_within(used..end, 0);
                end -= used;
                if end == buf.len() {
                    return Err(format!("probe {req:?}: response head too large"));
                }
            }
            Parsed::Broken => return Err(format!("probe {req:?}: unparseable response")),
            Parsed::Done { ok: false, .. } => return Err(format!("probe {req:?}: wrong response")),
            Parsed::Done { ok: true, .. } => {
                let h = head.expect("a finished response has a parsed head");
                if req.kind == Kind::Get {
                    if let Some(tag) = h.etag {
                        etags[req.file as usize] = Some(tag);
                    }
                }
                if req.close && !h.close {
                    return Err("probe: close request not answered with close".into());
                }
                return Ok(());
            }
        }
    }
}

impl Gen<'_> {
    pub fn etags(&self) -> &[Option<String>] {
        &self.etags
    }
}
