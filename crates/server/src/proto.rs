//! Protocol messages carried in [`Frame`](crate::frame::Frame) payloads.
//!
//! Two planes share one connection:
//!
//! * the **data plane** — [`Request::Upload`] feeds `gmon.out` blobs into
//!   named series, and [`Request::UploadDelta`] ships only what changed
//!   since the last applied window (answered with [`Response::Resync`]
//!   when the server cannot reconstitute from the named base);
//!   [`Request::Query`] and [`Request::Diff`] read rendered listings or
//!   the raw aggregate back out, and [`Request::Regress`] runs the
//!   statistical regression gate over two series server-side (protocol
//!   version 3);
//! * the **control plane** — [`Request::Kgmon`] remotes the kgmon verbs
//!   (on/off, moncontrol, extract, reset) to a VM hosted in the server.
//!
//! Strings are `u16 LE` length + UTF-8; blobs are `u32 LE` length +
//! bytes. Decoding is total: any input either decodes or returns
//! [`WireError::Malformed`] — never a panic — which the codec proptests
//! pin down.

use bytes::{Buf, BufMut};

use crate::frame::{Frame, WireError};

/// Request frame kinds (client → server).
pub mod kind {
    /// Upload one profile blob into a series.
    pub const UPLOAD: u8 = 0x01;
    /// Render a series aggregate (flat, call graph, or raw bytes).
    pub const QUERY: u8 = 0x02;
    /// Render the diff of two series aggregates.
    pub const DIFF: u8 = 0x03;
    /// Drive a hosted VM's kgmon tool.
    pub const KGMON: u8 = 0x04;
    /// Fetch the server's per-series counters.
    pub const STATS: u8 = 0x05;
    /// Upload one profile window as a delta against the series' last
    /// applied window (protocol version 2).
    pub const UPLOAD_DELTA: u8 = 0x06;
    /// Run the statistical regression gate over two series (protocol
    /// version 3).
    pub const REGRESS: u8 = 0x07;
    /// Checkpoint every stripe: snapshot its state and compact the WAL
    /// segments the snapshot covers (protocol version 4).
    pub const CHECKPOINT: u8 = 0x08;

    /// Response: upload accepted.
    pub const ACCEPTED: u8 = 0x80;
    /// Response: rendered text (listing, diff, stats, status).
    pub const TEXT: u8 = 0x81;
    /// Response: raw profile bytes.
    pub const BLOB: u8 = 0x82;
    /// Response: this (series, seq) was already uploaded; the aggregate
    /// is unchanged. Success for a retrying client, not an error.
    pub const DUPLICATE: u8 = 0x83;
    /// Response: a delta upload's `base_seq` is not the series' last
    /// applied window — the client must resend a full blob (protocol
    /// version 2). Flow control, not an error.
    pub const RESYNC: u8 = 0x84;
    /// Response: a rendered regression report plus its verdict bit
    /// (protocol version 3).
    pub const REGRESS_REPORT: u8 = 0x85;
    /// Response: what a checkpoint sweep did, per
    /// [`Response::CheckpointDone`] (protocol version 4).
    pub const CHECKPOINT_DONE: u8 = 0x86;
    /// Response: the request was rejected.
    pub const ERROR: u8 = 0xFF;
}

/// How a server-rendered report should be formatted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// The versioned machine-readable JSON document.
    Json,
}

/// Which retained view of each series a [`Request::Regress`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressScope {
    /// The whole-series aggregates (everything ever folded in).
    Aggregate,
    /// The `n`-th newest retained window of each series (1 = newest).
    Window(u64),
    /// A trailing baseline: the mean of up to `k` retained windows of
    /// the `before` series preceding its newest, against the `after`
    /// series' newest window.
    Baseline(u64),
}

/// What a [`Request::Query`] should return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The rendered flat profile.
    Flat,
    /// The rendered Figure-4 call graph profile.
    Graph,
    /// The aggregate profile in `gmon.out` bytes (what `graphprof -s`
    /// would have written offline).
    Sum,
}

/// A moncontrol restriction for a hosted VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonRange {
    /// Lift any restriction.
    Off,
    /// Restrict to `[from, to)` (absolute text addresses).
    Addrs(u32, u32),
    /// Restrict to one routine's range, resolved server-side against the
    /// served executable's symbol table.
    Routine(String),
}

/// A remoted kgmon verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KgmonVerb {
    /// Turn profiling on.
    On,
    /// Turn profiling off.
    Off,
    /// Report whether profiling is on.
    Status,
    /// Snapshot the profiling data without disturbing it; optionally also
    /// store the snapshot server-side as the next upload of a series.
    Extract {
        /// Series to store the snapshot into, if any.
        into: Option<String>,
    },
    /// Reset the profiling data to empty.
    Reset,
    /// Apply or lift an address-range restriction.
    Moncontrol(MonRange),
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Upload `blob` as sequence number `seq` of `series`.
    Upload {
        /// Series name.
        series: String,
        /// Client-assigned sequence number (unique within the series).
        seq: u64,
        /// Raw `gmon.out` bytes.
        blob: Vec<u8>,
    },
    /// Upload sequence number `seq` of `series` as a delta body (see
    /// `graphprof_monitor::delta`) against the window the server last
    /// applied for the series, which the client believes is `base_seq`.
    /// Answered with [`Response::Resync`] when that belief is stale.
    UploadDelta {
        /// Series name.
        series: String,
        /// Sequence number of the window the delta was encoded against.
        base_seq: u64,
        /// Client-assigned sequence number of the window being uploaded.
        seq: u64,
        /// Encoded delta body.
        delta: Vec<u8>,
    },
    /// Read a series aggregate back out.
    Query {
        /// Series name.
        series: String,
        /// Presentation.
        kind: QueryKind,
    },
    /// Diff two series aggregates (`before` → `after`).
    Diff {
        /// Baseline series.
        before: String,
        /// Comparison series.
        after: String,
        /// Report rendering, encoded as a trailing byte.
        format: ReportFormat,
    },
    /// Run the statistical regression gate over two series
    /// (`before` → `after`) and return the rendered report plus its
    /// verdict. Thresholds travel as ×1000 fixed-point integers.
    Regress {
        /// Baseline series.
        before: String,
        /// Comparison series.
        after: String,
        /// Which retained view of each series to compare.
        scope: RegressScope,
        /// Minimum significance in milli-sigmas (`--min-sigma` × 1000).
        min_sigma_milli: u64,
        /// Minimum absolute movement in milli-ticks (`--min-ticks` × 1000).
        min_ticks_milli: u64,
        /// Minimum relative movement in milli-percent (`--min-pct` × 1000).
        min_pct_milli: u64,
        /// Report rendering.
        format: ReportFormat,
    },
    /// Drive a hosted VM's kgmon tool. An empty `vm` name resolves to
    /// the server's only VM when exactly one is hosted.
    Kgmon {
        /// Hosted VM name.
        vm: String,
        /// The verb.
        verb: KgmonVerb,
    },
    /// Fetch per-series upload/reject/byte counters.
    Stats,
    /// Checkpoint every stripe: snapshot its state, delete the WAL
    /// segments the snapshot covers, and heal any wedged stripe. A
    /// stripe whose snapshot fails keeps serving on its WAL and is
    /// counted in the response, never an error.
    Checkpoint,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// An upload was accepted.
    Accepted {
        /// Series it landed in.
        series: String,
        /// Its sequence number.
        seq: u64,
        /// Profiles now folded into the series aggregate.
        total: u64,
    },
    /// The upload's (series, seq) was already folded in — the retried
    /// request is acknowledged without double-counting (idempotent
    /// dedup). Clients treat this exactly like [`Response::Accepted`].
    Duplicate {
        /// Series the original upload landed in.
        series: String,
        /// The duplicated sequence number.
        seq: u64,
        /// Profiles currently in the series aggregate.
        total: u64,
    },
    /// A delta upload named a `base_seq` that is not the series' last
    /// applied window, so the server cannot reconstitute it. The client
    /// falls back to uploading the same `seq` as one full blob. Flow
    /// control, not an error: nothing was folded or charged.
    Resync {
        /// Series the delta was aimed at.
        series: String,
        /// The sequence number the client tried to upload.
        seq: u64,
        /// The base the server could have accepted — the series' last
        /// applied seq — or `None` when the series has no window yet.
        expected: Option<u64>,
    },
    /// A regression report: the verdict bit a CI gate exits on, plus the
    /// rendered report (text or JSON, per the request's format).
    Regress {
        /// True when the gate flagged at least one routine.
        regressed: bool,
        /// The rendered report.
        report: String,
    },
    /// What a checkpoint sweep did across the store's stripes.
    CheckpointDone {
        /// Stripes the sweep covered.
        stripes: u64,
        /// WAL segments deleted because a snapshot now covers them.
        segments_removed: u64,
        /// Wedged stripes healed back to accepting uploads.
        healed: u64,
        /// Stripes whose snapshot failed (still serving on the WAL;
        /// retried with backoff).
        failed: u64,
    },
    /// Rendered text (listing, diff, stats, kgmon status).
    Text(String),
    /// Raw profile bytes (query `Sum`, kgmon `Extract`).
    Blob(Vec<u8>),
    /// The request was rejected; the connection stays usable.
    Error(String),
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "protocol strings are short");
    out.put_u16_le(s.len() as u16);
    out.put_slice(s.as_bytes());
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.put_u32_le(b.len() as u32);
    out.put_slice(b);
}

fn need(data: &[u8], n: usize, what: &str) -> Result<(), WireError> {
    if data.remaining() < n {
        Err(WireError::Malformed(format!("payload ends inside {what}")))
    } else {
        Ok(())
    }
}

fn get_str(data: &mut &[u8]) -> Result<String, WireError> {
    need(data, 2, "a string length")?;
    let len = data.get_u16_le() as usize;
    need(data, len, "a string")?;
    let mut bytes = vec![0u8; len];
    data.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| WireError::Malformed("string is not UTF-8".to_string()))
}

fn get_blob(data: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    need(data, 4, "a blob length")?;
    let len = data.get_u32_le() as usize;
    need(data, len, "a blob")?;
    let mut bytes = vec![0u8; len];
    data.copy_to_slice(&mut bytes);
    Ok(bytes)
}

fn get_u64(data: &mut &[u8]) -> Result<u64, WireError> {
    need(data, 8, "an integer")?;
    Ok(data.get_u64_le())
}

fn get_u32(data: &mut &[u8]) -> Result<u32, WireError> {
    need(data, 4, "an integer")?;
    Ok(data.get_u32_le())
}

fn get_u8(data: &mut &[u8]) -> Result<u8, WireError> {
    need(data, 1, "a tag")?;
    Ok(data.get_u8())
}

fn put_format(out: &mut Vec<u8>, format: ReportFormat) {
    out.put_u8(match format {
        ReportFormat::Text => 0,
        ReportFormat::Json => 1,
    });
}

fn get_format(data: &mut &[u8]) -> Result<ReportFormat, WireError> {
    match get_u8(data)? {
        0 => Ok(ReportFormat::Text),
        1 => Ok(ReportFormat::Json),
        other => Err(WireError::Malformed(format!("unknown report format {other}"))),
    }
}

fn finish<T>(data: &[u8], value: T) -> Result<T, WireError> {
    if data.has_remaining() {
        Err(WireError::Malformed(format!("{} trailing payload bytes", data.remaining())))
    } else {
        Ok(value)
    }
}

impl Request {
    /// Encodes the request as a frame.
    pub fn to_frame(&self) -> Frame {
        let mut p = Vec::new();
        let kind = match self {
            Request::Upload { series, seq, blob } => {
                put_str(&mut p, series);
                p.put_u64_le(*seq);
                put_blob(&mut p, blob);
                kind::UPLOAD
            }
            Request::UploadDelta { series, base_seq, seq, delta } => {
                put_str(&mut p, series);
                p.put_u64_le(*base_seq);
                p.put_u64_le(*seq);
                put_blob(&mut p, delta);
                kind::UPLOAD_DELTA
            }
            Request::Query { series, kind } => {
                put_str(&mut p, series);
                p.put_u8(match kind {
                    QueryKind::Flat => 0,
                    QueryKind::Graph => 1,
                    QueryKind::Sum => 2,
                });
                kind::QUERY
            }
            Request::Diff { before, after, format } => {
                put_str(&mut p, before);
                put_str(&mut p, after);
                put_format(&mut p, *format);
                kind::DIFF
            }
            Request::Regress {
                before,
                after,
                scope,
                min_sigma_milli,
                min_ticks_milli,
                min_pct_milli,
                format,
            } => {
                put_str(&mut p, before);
                put_str(&mut p, after);
                match scope {
                    RegressScope::Aggregate => p.put_u8(0),
                    RegressScope::Window(n) => {
                        p.put_u8(1);
                        p.put_u64_le(*n);
                    }
                    RegressScope::Baseline(k) => {
                        p.put_u8(2);
                        p.put_u64_le(*k);
                    }
                }
                p.put_u64_le(*min_sigma_milli);
                p.put_u64_le(*min_ticks_milli);
                p.put_u64_le(*min_pct_milli);
                put_format(&mut p, *format);
                kind::REGRESS
            }
            Request::Kgmon { vm, verb } => {
                put_str(&mut p, vm);
                match verb {
                    KgmonVerb::On => p.put_u8(0),
                    KgmonVerb::Off => p.put_u8(1),
                    KgmonVerb::Status => p.put_u8(2),
                    KgmonVerb::Extract { into } => {
                        p.put_u8(3);
                        put_str(&mut p, into.as_deref().unwrap_or(""));
                    }
                    KgmonVerb::Reset => p.put_u8(4),
                    KgmonVerb::Moncontrol(range) => {
                        p.put_u8(5);
                        match range {
                            MonRange::Off => p.put_u8(0),
                            MonRange::Addrs(from, to) => {
                                p.put_u8(1);
                                p.put_u32_le(*from);
                                p.put_u32_le(*to);
                            }
                            MonRange::Routine(name) => {
                                p.put_u8(2);
                                put_str(&mut p, name);
                            }
                        }
                    }
                }
                kind::KGMON
            }
            Request::Stats => kind::STATS,
            Request::Checkpoint => kind::CHECKPOINT,
        };
        Frame::new(kind, p)
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] for an unknown kind or a payload
    /// that does not decode; decoding never panics.
    pub fn from_frame(frame: &Frame) -> Result<Request, WireError> {
        let mut data = frame.payload.as_slice();
        let data = &mut data;
        match frame.kind {
            kind::UPLOAD => {
                let series = get_str(data)?;
                let seq = get_u64(data)?;
                let blob = get_blob(data)?;
                finish(data, Request::Upload { series, seq, blob })
            }
            kind::UPLOAD_DELTA => {
                let series = get_str(data)?;
                let base_seq = get_u64(data)?;
                let seq = get_u64(data)?;
                let delta = get_blob(data)?;
                finish(data, Request::UploadDelta { series, base_seq, seq, delta })
            }
            kind::QUERY => {
                let series = get_str(data)?;
                let kind = match get_u8(data)? {
                    0 => QueryKind::Flat,
                    1 => QueryKind::Graph,
                    2 => QueryKind::Sum,
                    other => {
                        return Err(WireError::Malformed(format!("unknown query kind {other}")))
                    }
                };
                finish(data, Request::Query { series, kind })
            }
            kind::DIFF => {
                let before = get_str(data)?;
                let after = get_str(data)?;
                let format = get_format(data)?;
                finish(data, Request::Diff { before, after, format })
            }
            kind::REGRESS => {
                let before = get_str(data)?;
                let after = get_str(data)?;
                let scope = match get_u8(data)? {
                    0 => RegressScope::Aggregate,
                    1 => RegressScope::Window(get_u64(data)?),
                    2 => RegressScope::Baseline(get_u64(data)?),
                    other => {
                        return Err(WireError::Malformed(format!(
                            "unknown regress scope tag {other}"
                        )))
                    }
                };
                let min_sigma_milli = get_u64(data)?;
                let min_ticks_milli = get_u64(data)?;
                let min_pct_milli = get_u64(data)?;
                let format = get_format(data)?;
                finish(
                    data,
                    Request::Regress {
                        before,
                        after,
                        scope,
                        min_sigma_milli,
                        min_ticks_milli,
                        min_pct_milli,
                        format,
                    },
                )
            }
            kind::KGMON => {
                let vm = get_str(data)?;
                let verb = match get_u8(data)? {
                    0 => KgmonVerb::On,
                    1 => KgmonVerb::Off,
                    2 => KgmonVerb::Status,
                    3 => {
                        let into = get_str(data)?;
                        KgmonVerb::Extract { into: (!into.is_empty()).then_some(into) }
                    }
                    4 => KgmonVerb::Reset,
                    5 => {
                        let range = match get_u8(data)? {
                            0 => MonRange::Off,
                            1 => MonRange::Addrs(get_u32(data)?, get_u32(data)?),
                            2 => MonRange::Routine(get_str(data)?),
                            other => {
                                return Err(WireError::Malformed(format!(
                                    "unknown moncontrol range tag {other}"
                                )))
                            }
                        };
                        KgmonVerb::Moncontrol(range)
                    }
                    other => {
                        return Err(WireError::Malformed(format!("unknown kgmon verb {other}")))
                    }
                };
                finish(data, Request::Kgmon { vm, verb })
            }
            kind::STATS => finish(data, Request::Stats),
            kind::CHECKPOINT => finish(data, Request::Checkpoint),
            other => Err(WireError::Malformed(format!("unknown request kind {other:#04x}"))),
        }
    }
}

impl Response {
    /// Encodes the response as a frame.
    pub fn to_frame(&self) -> Frame {
        let mut p = Vec::new();
        let kind = match self {
            Response::Accepted { series, seq, total } => {
                put_str(&mut p, series);
                p.put_u64_le(*seq);
                p.put_u64_le(*total);
                kind::ACCEPTED
            }
            Response::Duplicate { series, seq, total } => {
                put_str(&mut p, series);
                p.put_u64_le(*seq);
                p.put_u64_le(*total);
                kind::DUPLICATE
            }
            Response::Resync { series, seq, expected } => {
                put_str(&mut p, series);
                p.put_u64_le(*seq);
                match expected {
                    Some(base) => {
                        p.put_u8(1);
                        p.put_u64_le(*base);
                    }
                    None => p.put_u8(0),
                }
                kind::RESYNC
            }
            Response::Regress { regressed, report } => {
                p.put_u8(u8::from(*regressed));
                put_blob(&mut p, report.as_bytes());
                kind::REGRESS_REPORT
            }
            Response::CheckpointDone { stripes, segments_removed, healed, failed } => {
                p.put_u64_le(*stripes);
                p.put_u64_le(*segments_removed);
                p.put_u64_le(*healed);
                p.put_u64_le(*failed);
                kind::CHECKPOINT_DONE
            }
            Response::Text(text) => {
                put_blob(&mut p, text.as_bytes());
                kind::TEXT
            }
            Response::Blob(bytes) => {
                put_blob(&mut p, bytes);
                kind::BLOB
            }
            Response::Error(reason) => {
                put_blob(&mut p, reason.as_bytes());
                kind::ERROR
            }
        };
        Frame::new(kind, p)
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] for an unknown kind or a payload
    /// that does not decode.
    pub fn from_frame(frame: &Frame) -> Result<Response, WireError> {
        let mut data = frame.payload.as_slice();
        let data = &mut data;
        let text = |data: &mut &[u8]| -> Result<String, WireError> {
            String::from_utf8(get_blob(data)?)
                .map_err(|_| WireError::Malformed("text is not UTF-8".to_string()))
        };
        match frame.kind {
            kind::ACCEPTED => {
                let series = get_str(data)?;
                let seq = get_u64(data)?;
                let total = get_u64(data)?;
                finish(data, Response::Accepted { series, seq, total })
            }
            kind::DUPLICATE => {
                let series = get_str(data)?;
                let seq = get_u64(data)?;
                let total = get_u64(data)?;
                finish(data, Response::Duplicate { series, seq, total })
            }
            kind::RESYNC => {
                let series = get_str(data)?;
                let seq = get_u64(data)?;
                let expected = match get_u8(data)? {
                    0 => None,
                    1 => Some(get_u64(data)?),
                    other => {
                        return Err(WireError::Malformed(format!(
                            "unknown resync base tag {other}"
                        )))
                    }
                };
                finish(data, Response::Resync { series, seq, expected })
            }
            kind::REGRESS_REPORT => {
                let regressed = match get_u8(data)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Malformed(format!(
                            "unknown regress verdict {other}"
                        )))
                    }
                };
                let report = text(data)?;
                finish(data, Response::Regress { regressed, report })
            }
            kind::CHECKPOINT_DONE => {
                let stripes = get_u64(data)?;
                let segments_removed = get_u64(data)?;
                let healed = get_u64(data)?;
                let failed = get_u64(data)?;
                finish(data, Response::CheckpointDone { stripes, segments_removed, healed, failed })
            }
            kind::TEXT => {
                let t = text(data)?;
                finish(data, Response::Text(t))
            }
            kind::BLOB => {
                let b = get_blob(data)?;
                finish(data, Response::Blob(b))
            }
            kind::ERROR => {
                let t = text(data)?;
                finish(data, Response::Error(t))
            }
            other => Err(WireError::Malformed(format!("unknown response kind {other:#04x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Upload { series: "web".into(), seq: 3, blob: vec![1, 2, 3] },
            Request::Upload { series: String::new(), seq: u64::MAX, blob: vec![] },
            Request::UploadDelta { series: "web".into(), base_seq: 2, seq: 3, delta: vec![9, 8] },
            Request::UploadDelta { series: String::new(), base_seq: 0, seq: 0, delta: vec![] },
            Request::Query { series: "web".into(), kind: QueryKind::Flat },
            Request::Query { series: "web".into(), kind: QueryKind::Graph },
            Request::Query { series: "web".into(), kind: QueryKind::Sum },
            Request::Diff { before: "v1".into(), after: "v2".into(), format: ReportFormat::Text },
            Request::Diff { before: "v1".into(), after: "v2".into(), format: ReportFormat::Json },
            Request::Regress {
                before: "v1".into(),
                after: "v2".into(),
                scope: RegressScope::Aggregate,
                min_sigma_milli: 3000,
                min_ticks_milli: 1000,
                min_pct_milli: 5000,
                format: ReportFormat::Text,
            },
            Request::Regress {
                before: "a".into(),
                after: "b".into(),
                scope: RegressScope::Window(2),
                min_sigma_milli: 0,
                min_ticks_milli: 0,
                min_pct_milli: 0,
                format: ReportFormat::Json,
            },
            Request::Regress {
                before: "s".into(),
                after: "s".into(),
                scope: RegressScope::Baseline(u64::MAX),
                min_sigma_milli: u64::MAX,
                min_ticks_milli: 1,
                min_pct_milli: 2,
                format: ReportFormat::Json,
            },
            Request::Kgmon { vm: "kernel".into(), verb: KgmonVerb::On },
            Request::Kgmon { vm: String::new(), verb: KgmonVerb::Off },
            Request::Kgmon { vm: "k".into(), verb: KgmonVerb::Status },
            Request::Kgmon { vm: "k".into(), verb: KgmonVerb::Extract { into: None } },
            Request::Kgmon { vm: "k".into(), verb: KgmonVerb::Extract { into: Some("s".into()) } },
            Request::Kgmon { vm: "k".into(), verb: KgmonVerb::Reset },
            Request::Kgmon { vm: "k".into(), verb: KgmonVerb::Moncontrol(MonRange::Off) },
            Request::Kgmon {
                vm: "k".into(),
                verb: KgmonVerb::Moncontrol(MonRange::Addrs(0x1000, 0x2000)),
            },
            Request::Kgmon {
                vm: "k".into(),
                verb: KgmonVerb::Moncontrol(MonRange::Routine("disk".into())),
            },
            Request::Stats,
            Request::Checkpoint,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            let back = Request::from_frame(&req.to_frame()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Accepted { series: "web".into(), seq: 9, total: 10 },
            Response::Duplicate { series: "web".into(), seq: 9, total: 10 },
            Response::Resync { series: "web".into(), seq: 9, expected: Some(8) },
            Response::Resync { series: "web".into(), seq: 0, expected: None },
            Response::Regress { regressed: true, report: "verdict: REGRESSED".into() },
            Response::Regress { regressed: false, report: String::new() },
            Response::CheckpointDone { stripes: 4, segments_removed: 9, healed: 1, failed: 0 },
            Response::CheckpointDone {
                stripes: u64::MAX,
                segments_removed: 0,
                healed: 0,
                failed: u64::MAX,
            },
            Response::Text("flat profile:\n".into()),
            Response::Blob(vec![0xDE, 0xAD]),
            Response::Error("no such series".into()),
        ];
        for resp in responses {
            let back = Response::from_frame(&resp.to_frame()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn truncated_payloads_are_malformed_not_panics() {
        for req in requests() {
            let frame = req.to_frame();
            for len in 0..frame.payload.len() {
                let cut = Frame::new(frame.kind, frame.payload[..len].to_vec());
                assert!(
                    matches!(Request::from_frame(&cut), Err(WireError::Malformed(_))),
                    "{req:?} cut to {len}"
                );
            }
        }
    }

    #[test]
    fn a_diff_without_its_format_byte_is_malformed() {
        let mut p = Vec::new();
        put_str(&mut p, "v1");
        put_str(&mut p, "v2");
        let err = Request::from_frame(&Frame::new(kind::DIFF, p)).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut frame = Request::Stats.to_frame();
        frame.payload.push(0);
        assert!(matches!(Request::from_frame(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_kinds_are_malformed() {
        let frame = Frame::new(0x42, vec![]);
        assert!(matches!(Request::from_frame(&frame), Err(WireError::Malformed(_))));
        assert!(matches!(Response::from_frame(&frame), Err(WireError::Malformed(_))));
    }
}
