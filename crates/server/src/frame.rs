//! The wire frame: a small length-prefixed, versioned envelope.
//!
//! Every message on a `graphprof-serve` connection — in either direction —
//! is one frame:
//!
//! ```text
//! magic   b"GPRS"     4 bytes
//! version u16 LE      4 (the only version spoken)
//! kind    u8          message discriminant (see `proto`)
//! flags   u8          reserved, 0
//! len     u32 LE      payload length in bytes
//! payload [u8; len]
//! ```
//!
//! The header is fixed-size so a reader can validate magic, version, and
//! length *before* allocating or reading a payload: an oversized or
//! garbage frame is rejected after twelve bytes, which is what lets the
//! server drop a hostile connection without ever buffering its payload.
//!
//! Every frame is written at [`VERSION`] and readers accept only
//! [`VERSION`]: a peer speaking any other version is refused with
//! [`WireError::UnsupportedVersion`] from the header alone.

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic: "GPRS" (graphprof-serve).
pub const MAGIC: [u8; 4] = *b"GPRS";
/// The protocol version every frame is written at and the only one
/// readers accept.
pub const VERSION: u16 = 4;
/// Fixed header size preceding every payload.
pub const HEADER_LEN: usize = 12;
/// Default cap on payload length enforced by readers.
pub const DEFAULT_MAX_PAYLOAD: usize = 16 << 20;

/// One protocol message: a discriminant plus an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant (request and response kinds live in `proto`).
    pub kind: u8,
    /// Message payload, encoded per kind.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: u8, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }
}

/// Any failure encoding, decoding, or transporting protocol messages.
#[derive(Debug)]
pub enum WireError {
    /// The stream does not start with the frame magic.
    BadMagic,
    /// The peer speaks a protocol version this side cannot.
    UnsupportedVersion {
        /// The version found in the header.
        version: u16,
    },
    /// The header declares a payload larger than the reader allows.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The reader's cap.
        max: usize,
    },
    /// The stream ended inside a frame (disconnect mid-message).
    Truncated,
    /// A structurally complete frame whose payload does not decode.
    Malformed(String),
    /// A transport-level failure (includes read/write deadline expiry).
    Io(std::io::Error),
}

impl WireError {
    /// Whether this error is a read/write deadline expiring.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            )
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not a graphprof-serve frame (bad magic)"),
            WireError::UnsupportedVersion { version } => {
                write!(f, "unsupported protocol version {version}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Malformed(reason) => write!(f, "malformed message: {reason}"),
            WireError::Io(e) if self.is_timeout() => write!(f, "deadline exceeded: {e}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e),
        }
    }
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
///
/// Returns [`WireError::Oversized`] when the payload exceeds `max_payload`
/// (the writer enforces the same cap readers do, so a compliant client
/// never produces a frame its server must reject), or [`WireError::Io`]
/// for transport failures.
pub fn write_frame(w: &mut impl Write, frame: &Frame, max_payload: usize) -> Result<(), WireError> {
    let bytes = encode_frame(frame, max_payload)?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Encodes a frame (header + payload) to bytes without writing it.
///
/// # Errors
///
/// Returns [`WireError::Oversized`] when the payload exceeds
/// `max_payload`.
pub fn encode_frame(frame: &Frame, max_payload: usize) -> Result<Vec<u8>, WireError> {
    if frame.payload.len() > max_payload {
        return Err(WireError::Oversized { len: frame.payload.len(), max: max_payload });
    }
    let mut bytes = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.push(frame.kind);
    bytes.push(0);
    bytes.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&frame.payload);
    Ok(bytes)
}

/// [`write_frame`] with a [`FaultPlan`](crate::fault::FaultPlan) in the
/// path: the encoded bytes are offered to the plan, which may corrupt
/// them in place, truncate the write, or suppress it entirely (the
/// injected version of a peer dying mid-send).
///
/// Returns `Ok(true)` when the frame went out whole (possibly corrupted)
/// and `Ok(false)` when the plan cut the connection — the caller must
/// treat the stream as dead.
///
/// # Errors
///
/// Returns [`WireError`] exactly as [`write_frame`] does.
pub fn write_frame_faulty(
    w: &mut impl Write,
    frame: &Frame,
    max_payload: usize,
    fault: &crate::fault::FaultPlan,
) -> Result<bool, WireError> {
    let mut bytes = encode_frame(frame, max_payload)?;
    match fault.on_frame(&mut bytes) {
        crate::fault::FrameFault::Send => {
            w.write_all(&bytes)?;
            w.flush()?;
            Ok(true)
        }
        crate::fault::FrameFault::Drop => Ok(false),
        crate::fault::FrameFault::Truncate(keep) => {
            w.write_all(&bytes[..keep])?;
            let _ = w.flush();
            Ok(false)
        }
    }
}

/// Reads one frame from `r`, enforcing `max_payload`.
///
/// Returns `Ok(None)` on a clean end of stream (the peer closed between
/// frames); every other shortfall is an error. The length check happens
/// before the payload is buffered.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first problem found.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "closed between frames" (fine) from "closed inside a
    // header" (truncation): read the first byte separately.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut header[1..])?;
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::UnsupportedVersion { version });
    }
    let kind = header[6];
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if len > max_payload {
        return Err(WireError::Oversized { len, max: max_payload });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame, DEFAULT_MAX_PAYLOAD).unwrap();
        read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap().expect("one frame")
    }

    #[test]
    fn frames_round_trip() {
        for payload in [vec![], vec![0u8], b"hello".to_vec(), vec![0xAB; 4096]] {
            let frame = Frame::new(7, payload);
            assert_eq!(round_trip(&frame), frame);
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut [].as_slice(), 64).unwrap().is_none());
    }

    #[test]
    fn truncation_inside_header_or_payload_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(1, vec![1, 2, 3, 4]), 64).unwrap();
        for len in 1..buf.len() {
            let err = read_frame(&mut &buf[..len], 64).unwrap_err();
            assert!(matches!(err, WireError::Truncated), "prefix {len} gave {err:?}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(1, vec![]), 64).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_frame(&mut buf.as_slice(), 64), Err(WireError::BadMagic)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(1, vec![]), 64).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 64),
            Err(WireError::UnsupportedVersion { version: 99 })
        ));
    }

    #[test]
    fn every_kind_rides_the_one_version_and_no_other_is_read() {
        for kind in [0x01u8, 0x80, 0x06, 0x84, 0x03, 0x07, 0x85, 0x08, 0x86] {
            let mut bytes = encode_frame(&Frame::new(kind, vec![]), 64).unwrap();
            assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION, "kind {kind:#x}");
            let frame = read_frame(&mut bytes.as_slice(), 64).unwrap().unwrap();
            assert_eq!(frame.kind, kind);
            // Every older version, and the next one, is refused.
            for version in [0u16, 1, 2, 3, VERSION + 1] {
                bytes[4..6].copy_from_slice(&version.to_le_bytes());
                assert!(
                    matches!(
                        read_frame(&mut bytes.as_slice(), 64),
                        Err(WireError::UnsupportedVersion { version: v }) if v == version
                    ),
                    "kind {kind:#x} at version {version}"
                );
            }
        }
    }

    #[test]
    fn faulty_writer_follows_the_plan() {
        use crate::fault::{FaultPlan, FaultSpec};
        let frame = Frame::new(1, vec![1, 2, 3, 4]);
        let plan = FaultPlan::new(FaultSpec {
            truncate_frame_at: Some((1, 5)),
            drop_frame_at: Some(2),
            ..FaultSpec::default()
        });
        let mut buf = Vec::new();
        assert!(write_frame_faulty(&mut buf, &frame, 64, &plan).unwrap());
        let whole = buf.len();
        assert_eq!(read_frame(&mut buf.as_slice(), 64).unwrap().unwrap(), frame);
        assert!(!write_frame_faulty(&mut buf, &frame, 64, &plan).unwrap());
        assert_eq!(buf.len(), whole + 5);
        assert!(!write_frame_faulty(&mut buf, &frame, 64, &plan).unwrap());
        assert_eq!(buf.len(), whole + 5, "dropped frame must write nothing");
        assert_eq!(plan.trips().len(), 2);
    }

    #[test]
    fn corrupted_frames_are_sent_but_do_not_decode() {
        use crate::fault::{FaultPlan, FaultSpec};
        let frame = Frame::new(1, vec![1, 2, 3, 4]);
        // Flip a magic byte: the reader rejects the frame outright.
        let plan =
            FaultPlan::new(FaultSpec { corrupt_frame_at: Some((0, 0)), ..FaultSpec::default() });
        let mut buf = Vec::new();
        assert!(write_frame_faulty(&mut buf, &frame, 64, &plan).unwrap());
        assert!(matches!(read_frame(&mut buf.as_slice(), 64), Err(WireError::BadMagic)));
    }

    #[test]
    fn oversized_frames_are_rejected_before_buffering() {
        // Header declares 1 MiB but the cap is 16 bytes: the reader must
        // fail on the header alone (no payload bytes are present at all).
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(1u32 << 20).to_le_bytes());
        let err = read_frame(&mut header.as_slice(), 16).unwrap_err();
        assert!(matches!(err, WireError::Oversized { len, max: 16 } if len == 1 << 20));
        // The writer refuses to produce such a frame in the first place.
        let err = write_frame(&mut Vec::new(), &Frame::new(1, vec![0; 17]), 16).unwrap_err();
        assert!(matches!(err, WireError::Oversized { len: 17, max: 16 }));
    }
}
