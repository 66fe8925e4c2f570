//! The **response plane**: one pure planner that turns (resource,
//! request conditions) into a [`ResponsePlan`] — status, header
//! segments, and a [`BodySource`] byte window — for *every* response
//! either tier produces. Conditional precedence (`If-None-Match` over
//! `If-Modified-Since`), `If-Range` gating, single-range resolution to
//! `206`/`416`, and variant headers are decided here and nowhere else;
//! drivers only ever transmit the window they are handed.
//!
//! The tier split itself (in-memory `writev` vs. `sendfile` window) is
//! decided at load time by [`super::HelperJob::inline_max`] and merely
//! *reflected* here: a cached resource yields [`BodySource::Bytes`]
//! windows, a file resource yields [`BodySource::File`] windows, and
//! range arithmetic is identical for both.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use flash_http::request::{IfRange, RangeSpec, Request};
use flash_http::response::{error_body, ContentRange, HeaderExtras, ResponseHeader, Status};
use flash_http::{etag_matches, mime};

use crate::cache::{header_pair, not_modified_since, Entry, Variant};
use crate::stats::Tier;

use super::machine::{Conn, SendFileState};
use super::{ConnIo, ShardStats};

/// The conditional/negotiation slice of one request, snapshotted onto
/// the connection at parse time — the response is often rendered by a
/// helper completion long after the `Request` itself is gone.
#[derive(Debug, Clone, Default)]
pub struct RequestCond {
    /// `If-Modified-Since`, parsed to unix seconds (an unparseable
    /// date makes the request unconditional).
    pub if_modified_since: Option<i64>,
    /// `If-None-Match`, verbatim; takes precedence over
    /// `If-Modified-Since` when present (RFC 9110 §13.1.3).
    pub if_none_match: Option<String>,
    /// A well-formed single-range `Range: bytes=..` header (malformed
    /// or multi-range headers were dropped at parse time: ignoring the
    /// header — a full `200` — is the compliant degradation).
    pub range: Option<RangeSpec>,
    /// `If-Range`: gates `range` on a strong validator match.
    pub if_range: Option<IfRange>,
    /// Whether `Accept-Encoding` admits gzip.
    pub accept_gzip: bool,
}

impl RequestCond {
    /// Snapshots the conditional fields of a parsed request.
    pub fn from_request(req: &Request) -> RequestCond {
        RequestCond {
            if_modified_since: req
                .if_modified_since
                .as_deref()
                .and_then(flash_http::date::parse_imf),
            if_none_match: req.if_none_match.clone(),
            range: req.range,
            if_range: req.if_range.clone(),
            accept_gzip: req.accept_gzip,
        }
    }
}

/// A large representation bound for the `sendfile` window seam: an
/// open file handle and its identity, with the plain-200 header pair
/// rendered once for every waiter (range and conditional responses
/// re-render per waiter).
pub struct FileRep<F> {
    pub file: F,
    pub len: u64,
    pub mtime: Option<i64>,
    pub variant: Variant,
    pub has_gzip: bool,
    pub etag: String,
    pub header_keep: Bytes,
    pub header_close: Bytes,
}

impl<F> FileRep<F> {
    /// `file` served at `url_path`, with its header pair rendered.
    pub fn new(
        url_path: &str,
        file: F,
        len: u64,
        mtime: Option<i64>,
        variant: Variant,
        has_gzip: bool,
    ) -> FileRep<F> {
        let (header_keep, header_close, etag) =
            header_pair(url_path, len, mtime, variant, has_gzip);
        FileRep {
            file,
            len,
            mtime,
            variant,
            has_gzip,
            etag,
            header_keep,
            header_close,
        }
    }
}

/// The representation about to be served, unified across the two
/// storage tiers so the planner never branches on "cached or fd".
pub enum Resource<'a, F> {
    /// A content-cache entry (body resident, headers pre-rendered).
    Cached(&'a Arc<Entry>),
    /// An open file handle bound for the `sendfile` window seam.
    File(&'a FileRep<F>),
}

impl<'a, F: Clone> Resource<'a, F> {
    /// Complete representation length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Resource::Cached(e) => e.body.len() as u64,
            Resource::File(f) => f.len,
        }
    }

    /// Whether the representation is empty (`len() == 0`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn mtime(&self) -> Option<i64> {
        match self {
            Resource::Cached(e) => e.mtime,
            Resource::File(f) => f.mtime,
        }
    }

    fn etag(&self) -> &str {
        match self {
            Resource::Cached(e) => &e.etag,
            Resource::File(f) => &f.etag,
        }
    }

    fn variant(&self) -> Variant {
        match self {
            Resource::Cached(e) => e.variant,
            Resource::File(f) => f.variant,
        }
    }

    fn has_gzip(&self) -> bool {
        match self {
            Resource::Cached(e) => e.has_gzip,
            Resource::File(f) => f.has_gzip,
        }
    }

    /// The byte window `[offset, offset+len)` of this representation as
    /// a transmittable body source.
    fn window(&self, offset: u64, len: u64) -> BodySource<F> {
        match self {
            Resource::Cached(e) => {
                BodySource::Bytes(e.body.slice(offset as usize..(offset + len) as usize))
            }
            Resource::File(f) => BodySource::File {
                file: f.file.clone(),
                offset,
                len,
            },
        }
    }

    /// Queues the pre-rendered plain-200 header (current `Date`).
    fn push_plain_header(&self, keep: bool, out: &mut Vec<Bytes>) {
        match self {
            Resource::Cached(e) => e.push_header(keep, out),
            Resource::File(f) => out.push(if keep {
                f.header_keep.clone()
            } else {
                f.header_close.clone()
            }),
        }
    }
}

/// A byte window over some representation — the only body shape a
/// driver ever transmits. Which storage it windows decides the
/// transmit mechanism, not the semantics.
pub enum BodySource<F> {
    /// In-memory bytes, queued on the gathered-`writev` path.
    Bytes(Bytes),
    /// A file window `[offset, offset+len)`, streamed through the
    /// [`ConnIo::sendfile`] seam with partial-send resumption and the
    /// fairness budget.
    File { file: F, offset: u64, len: u64 },
    /// No body (`304`, or a zero-length window).
    Empty,
    /// An open chunked stream: the body's length is unknown when the
    /// header goes out — an application worker produces it
    /// incrementally and the shard appends each chunk to the output
    /// queue as its [`super::DynEvent`] arrives. Queueing this source
    /// opens the connection's stream state; the terminal frame (or an
    /// error path) closes it. HEAD never opens a stream — the header
    /// is kept and the source dropped, like every other body.
    Stream,
}

/// One fully-decided response: status for the access log, header
/// segments to queue verbatim, and the body window. HEAD is applied at
/// queue time (header kept — with the true `Content-Length` /
/// `Content-Range` — body dropped).
pub struct ResponsePlan<F> {
    pub status: Status,
    /// Access-log tier (`NotModified` for 304, `Error` for 416, the
    /// caller's serving tier otherwise).
    pub tier: Tier,
    /// Header segments, queued ahead of the body (plain-200 cached
    /// headers arrive as zero-copy slices around a fresh date).
    pub header: Vec<Bytes>,
    pub body: BodySource<F>,
}

/// Decides the response for `resource` under `cond` — the single
/// authority for conditional precedence, `If-Range` gating, and range
/// resolution on **both** tiers:
///
/// 1. `If-None-Match` first (weak comparison, `*` allowed); when
///    present it *replaces* `If-Modified-Since` entirely. A match is a
///    `304` carrying the representation's `ETag`.
/// 2. Otherwise `If-Modified-Since` (unix-seconds comparison) may
///    yield the `304`.
/// 3. A `Range` header applies only when `If-Range` is absent or its
///    strong validator matches exactly; a satisfiable single range is
///    a `206` with `Content-Range: bytes start-end/total` and the
///    matching byte window; an unsatisfiable one is a `416` with
///    `Content-Range: bytes */total` (keep-alive preserved — the
///    connection is fine, the range was not).
/// 4. Everything else is the plain `200` with the pre-rendered header.
///
/// `path` is the resource's URL path (content-type only); `body_tier`
/// is the access-log tier a body-bearing response reports.
pub fn plan_response<F: Clone>(
    resource: &Resource<'_, F>,
    path: &str,
    cond: &RequestCond,
    keep_alive: bool,
    body_tier: Tier,
    stats: &ShardStats,
) -> ResponsePlan<F> {
    let etag = resource.etag();
    let mtime = resource.mtime();
    let total = resource.len();
    // Conditional evaluation: If-None-Match wins outright when present.
    let not_modified = match cond.if_none_match.as_deref() {
        Some(inm) => etag_matches(inm, etag),
        None => not_modified_since(mtime, cond.if_modified_since),
    };
    if not_modified {
        stats.not_modified.fetch_add(1, Ordering::Relaxed);
        let hdr = ResponseHeader::not_modified_full(keep_alive, mtime, Some(etag));
        return ResponsePlan {
            status: Status::NotModified,
            tier: Tier::NotModified,
            header: vec![Bytes::from(hdr.as_bytes().to_vec())],
            body: BodySource::Empty,
        };
    }
    // Range applies only when If-Range is absent or matches strongly.
    let range = cond.range.filter(|_| {
        cond.if_range
            .as_ref()
            .is_none_or(|ir| ir.matches(etag, mtime))
    });
    if let Some(spec) = range {
        stats.range_requests.fetch_add(1, Ordering::Relaxed);
        let extras_for = |content_range| HeaderExtras {
            etag: Some(etag),
            content_range: Some(content_range),
            gzip: resource.variant().is_gzip(),
            vary_accept_encoding: resource.variant().is_gzip() || resource.has_gzip(),
        };
        match spec.resolve(total) {
            Some((start, end)) => {
                let len = end - start + 1;
                let hdr = ResponseHeader::build_full(
                    Status::PartialContent,
                    Some((mime::content_type(path), len)),
                    keep_alive,
                    true,
                    mtime,
                    extras_for(ContentRange::Span { start, end, total }),
                );
                return ResponsePlan {
                    status: Status::PartialContent,
                    tier: body_tier,
                    header: vec![Bytes::from(hdr.as_bytes().to_vec())],
                    body: resource.window(start, len),
                };
            }
            None => {
                stats.range_unsatisfiable.fetch_add(1, Ordering::Relaxed);
                let body = Bytes::from(error_body(Status::RangeNotSatisfiable));
                let hdr = ResponseHeader::build_full(
                    Status::RangeNotSatisfiable,
                    Some(("text/html", body.len() as u64)),
                    keep_alive,
                    true,
                    None,
                    extras_for(ContentRange::Unsatisfiable { total }),
                );
                return ResponsePlan {
                    status: Status::RangeNotSatisfiable,
                    tier: Tier::Error,
                    header: vec![Bytes::from(hdr.as_bytes().to_vec())],
                    body: BodySource::Bytes(body),
                };
            }
        }
    }
    // Plain 200: the pre-rendered header pair, full-body window.
    let mut header = Vec::with_capacity(3);
    resource.push_plain_header(keep_alive, &mut header);
    ResponsePlan {
        status: Status::Ok,
        tier: body_tier,
        header,
        body: resource.window(0, total),
    }
}

/// Applies a plan to a connection: headers onto the `writev` queue,
/// the body window onto whichever transmit path it names — unless the
/// request was HEAD, which keeps the headers (true `Content-Length` /
/// `Content-Range` included) and drops the body.
pub fn queue_plan<Io: ConnIo>(conn: &mut Conn<Io>, plan: ResponsePlan<Io::FileRef>) {
    conn.out.extend(plan.header);
    if conn.head_only {
        return;
    }
    match plan.body {
        BodySource::Bytes(b) => {
            if !b.is_empty() {
                conn.out.push_back(b);
            }
        }
        BodySource::File { file, offset, len } => {
            if len > 0 {
                conn.sendfile = Some(SendFileState {
                    file,
                    offset,
                    remaining: len,
                });
            }
        }
        BodySource::Empty => {}
        BodySource::Stream => {
            conn.stream_open = true;
        }
    }
}

/// The dynamic tier's response plan: a chunked `200` whose body is an
/// open [`BodySource::Stream`]. Dynamic responses bypass the
/// conditional plane entirely — no `ETag`, `Last-Modified`, `304`, or
/// `Range` handling applies ([`plan_response`] is never consulted);
/// the worker's output is generated per request and has no validators.
pub fn plan_dynamic<F>(keep_alive: bool) -> ResponsePlan<F> {
    let hdr = ResponseHeader::build_chunked(Status::Ok, "text/plain", keep_alive, true);
    ResponsePlan {
        status: Status::Ok,
        tier: Tier::Dynamic,
        header: vec![Bytes::from(hdr.as_bytes().to_vec())],
        body: BodySource::Stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::variant_key;

    fn stats() -> ShardStats {
        ShardStats::default()
    }

    fn entry() -> Arc<Entry> {
        Entry::build_with_mtime("/a.html", b"0123456789".to_vec(), Some(1_000_000))
    }

    /// A resource with no backing file — `F = ()` exercises the cached
    /// arm only.
    fn plan_cached(cond: &RequestCond, e: &Arc<Entry>, s: &ShardStats) -> ResponsePlan<()> {
        let res: Resource<'_, ()> = Resource::Cached(e);
        plan_response(&res, "/a.html", cond, true, Tier::Hit, s)
    }

    #[test]
    fn inm_match_beats_newer_ims() {
        let e = entry();
        let s = stats();
        // IMS alone would say "modified" (validator older than mtime),
        // but a matching If-None-Match must win with a 304.
        let cond = RequestCond {
            if_modified_since: Some(1),
            if_none_match: Some(e.etag.clone()),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::NotModified));
        assert_eq!(s.not_modified.load(Ordering::Relaxed), 1);
        // And a non-matching INM suppresses a would-be IMS 304.
        let cond = RequestCond {
            if_modified_since: Some(2_000_000),
            if_none_match: Some("\"other\"".into()),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::Ok));
    }

    #[test]
    fn satisfiable_range_windows_the_body() {
        let e = entry();
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=2-5"),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::PartialContent));
        let hdr = String::from_utf8(plan.header.iter().flat_map(|b| b.to_vec()).collect()).unwrap();
        assert!(hdr.contains("Content-Range: bytes 2-5/10\r\n"), "{hdr}");
        assert!(hdr.contains("Content-Length: 4\r\n"), "{hdr}");
        match plan.body {
            BodySource::Bytes(b) => assert_eq!(&b[..], b"2345"),
            _ => panic!("cached resource must window in memory"),
        }
        assert_eq!(s.range_requests.load(Ordering::Relaxed), 1);
        assert_eq!(s.range_unsatisfiable.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unsatisfiable_range_is_416_with_star_form_and_keepalive() {
        let e = entry();
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=99-"),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::RangeNotSatisfiable));
        let hdr = String::from_utf8(plan.header.iter().flat_map(|b| b.to_vec()).collect()).unwrap();
        assert!(hdr.contains("Content-Range: bytes */10\r\n"), "{hdr}");
        assert!(
            hdr.contains("Connection: keep-alive\r\n"),
            "416 must not cost the connection: {hdr}"
        );
        assert_eq!(s.range_unsatisfiable.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn if_range_mismatch_degrades_to_full_200() {
        let e = entry();
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=2-5"),
            if_range: Some(IfRange::Tag("\"stale\"".into())),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::Ok));
        match plan.body {
            BodySource::Bytes(b) => assert_eq!(b.len(), 10, "full body, not the window"),
            _ => panic!("expected in-memory body"),
        }
        assert_eq!(
            s.range_requests.load(Ordering::Relaxed),
            0,
            "a gated-out range is not a range request"
        );
        // A matching If-Range lets the window through.
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=2-5"),
            if_range: Some(IfRange::Tag(e.etag.clone())),
            ..Default::default()
        };
        let plan = plan_cached(&cond, &e, &s);
        assert!(matches!(plan.status, Status::PartialContent));
    }

    #[test]
    fn file_resource_windows_through_sendfile_seam() {
        let rep = FileRep::new(
            "/big.bin",
            42u32,
            100_000,
            Some(7),
            Variant::Identity,
            false,
        );
        let res = Resource::File(&rep);
        let s = stats();
        let cond = RequestCond {
            range: RangeSpec::parse("bytes=-500"),
            ..Default::default()
        };
        let plan = plan_response(&res, "/big.bin", &cond, true, Tier::Sendfile, &s);
        assert!(matches!(plan.status, Status::PartialContent));
        match plan.body {
            BodySource::File { file, offset, len } => {
                assert_eq!(file, 42);
                assert_eq!(offset, 99_500);
                assert_eq!(len, 500);
            }
            _ => panic!("file resource must window through sendfile"),
        }
    }

    #[test]
    fn dynamic_plan_is_chunked_and_unconditional() {
        let plan: ResponsePlan<()> = plan_dynamic(true);
        assert!(matches!(plan.status, Status::Ok));
        assert!(matches!(plan.tier, Tier::Dynamic));
        assert!(matches!(plan.body, BodySource::Stream));
        let hdr = String::from_utf8(plan.header.iter().flat_map(|b| b.to_vec()).collect()).unwrap();
        assert!(hdr.contains("Transfer-Encoding: chunked\r\n"), "{hdr}");
        assert!(!hdr.contains("Content-Length"), "{hdr}");
        assert!(!hdr.contains("ETag"), "dynamic bypasses validators: {hdr}");
        assert!(!hdr.contains("Last-Modified"), "{hdr}");
    }

    #[test]
    fn variant_keys_round_trip() {
        let k = variant_key("/x", Variant::Gzip);
        assert_eq!(crate::cache::split_variant_key(&k), ("/x", Variant::Gzip));
    }
}
