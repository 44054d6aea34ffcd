//! The length-prefixed wire protocol the daemon speaks.
//!
//! Every frame — request or response — is:
//!
//! ```text
//! [4 bytes magic "CSRV"][1 byte opcode/status][4 bytes BE payload len][payload]
//! ```
//!
//! Request opcodes are `0x01..=0x05`; response statuses are `0x80`
//! (ok) and the typed error classes `0xE1..=0xE3`, `0xE5` and `0xE6`
//! (payload = UTF-8 message; `0xE4` is unassigned, an unknown status).
//! Declared lengths are capped *before* allocation on both sides:
//! requests at [`MAX_REQUEST_PAYLOAD`], responses at
//! [`MAX_RESPONSE_PAYLOAD`].  A malformed frame is a per-connection
//! failure; it never kills the daemon.

use crate::error::ServeError;
use std::io::{self, Read, Write};

/// Frame magic, first on the wire in both directions.
pub const MAGIC: [u8; 4] = *b"CSRV";

/// Cap on request payloads (requests are tiny: at most one u64).
pub const MAX_REQUEST_PAYLOAD: usize = 4096;

/// Cap on response payloads.  The largest reply is a block: a decoded
/// one is at most `BlockImage::MAX_BLOCK_SIZE + BLOCK_SLACK` bytes, and
/// the cap leaves room for a compressed one that expanded.
pub const MAX_RESPONSE_PAYLOAD: usize = 16 << 20;

/// Bytes of framing before the payload (magic + opcode + length).
pub const HEADER_LEN: usize = 9;

/// A request to the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Fetch the artifact's info record (the payload is opaque to this
    /// crate; `cce-core` defines it).
    GetManifest,
    /// Fetch compressed block `n` (response: u32 BE ulen ‖ data).
    GetBlock(u64),
    /// Fetch and decompress block `n` (response: decoded bytes).
    DecodeBlock(u64),
    /// Fetch the always-on stats JSON.
    Stats,
    /// Ask the daemon to stop accepting connections.
    Shutdown,
}

impl Request {
    /// The wire opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Self::GetManifest => 0x01,
            Self::GetBlock(_) => 0x02,
            Self::DecodeBlock(_) => 0x03,
            Self::Stats => 0x04,
            Self::Shutdown => 0x05,
        }
    }

    /// The request payload bytes.
    pub fn payload(&self) -> Vec<u8> {
        match self {
            Self::GetBlock(n) | Self::DecodeBlock(n) => n.to_be_bytes().to_vec(),
            _ => Vec::new(),
        }
    }

    /// Encodes the full frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.opcode(), &self.payload())
    }

    /// Decodes a received frame into a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Proto`] on an unknown opcode or a payload whose
    /// size does not match the opcode exactly.
    pub fn parse(frame: &Frame) -> Result<Self, ServeError> {
        let want_u64 = |payload: &[u8]| -> Result<u64, ServeError> {
            let bytes: [u8; 8] = payload.try_into().map_err(|_| {
                ServeError::proto(format!("expected 8-byte payload, got {}", payload.len()))
            })?;
            Ok(u64::from_be_bytes(bytes))
        };
        let want_empty = |payload: &[u8]| -> Result<(), ServeError> {
            if payload.is_empty() {
                Ok(())
            } else {
                Err(ServeError::proto(format!("expected empty payload, got {}", payload.len())))
            }
        };
        match frame.opcode {
            0x01 => want_empty(&frame.payload).map(|()| Self::GetManifest),
            0x02 => want_u64(&frame.payload).map(Self::GetBlock),
            0x03 => want_u64(&frame.payload).map(Self::DecodeBlock),
            0x04 => want_empty(&frame.payload).map(|()| Self::Stats),
            0x05 => want_empty(&frame.payload).map(|()| Self::Shutdown),
            op => Err(ServeError::proto(format!("unknown opcode 0x{op:02x}"))),
        }
    }
}

/// A response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; payload depends on the request.
    Ok,
    /// The request frame was malformed.
    BadRequest,
    /// The requested entity does not exist.
    NotFound,
    /// Stored data failed an integrity check.
    Corrupt,
    /// A bounded queue was full.
    Busy,
    /// Any other server-side failure.
    Internal,
}

impl Status {
    /// The wire status byte.
    pub fn code(&self) -> u8 {
        match self {
            Self::Ok => 0x80,
            Self::BadRequest => 0xe1,
            Self::NotFound => 0xe2,
            Self::Corrupt => 0xe3,
            Self::Busy => 0xe5,
            Self::Internal => 0xe6,
        }
    }

    /// Decodes a status byte.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0x80 => Some(Self::Ok),
            0xe1 => Some(Self::BadRequest),
            0xe2 => Some(Self::NotFound),
            0xe3 => Some(Self::Corrupt),
            0xe5 => Some(Self::Busy),
            0xe6 => Some(Self::Internal),
            _ => None,
        }
    }

    /// The status a [`ServeError`] maps to on the wire.
    pub fn for_error(err: &ServeError) -> Self {
        match err {
            ServeError::Io(_) => Self::Internal,
            ServeError::Corrupt { .. } => Self::Corrupt,
            ServeError::Proto(_) => Self::BadRequest,
            ServeError::NotFound(_) => Self::NotFound,
            ServeError::Busy => Self::Busy,
            ServeError::Codec(_) => Self::Corrupt,
        }
    }

    /// Reconstructs the error a server-side status stands for.
    pub fn into_error(self, message: String) -> ServeError {
        match self {
            Self::Ok => ServeError::proto("ok status is not an error"),
            Self::BadRequest => ServeError::proto(message),
            Self::NotFound => ServeError::NotFound(message),
            Self::Corrupt => ServeError::corrupt("served artifact", message),
            Self::Busy => ServeError::Busy,
            Self::Internal => ServeError::Io(io::Error::other(message)),
        }
    }
}

/// A raw frame: opcode/status byte plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode (requests) or status (responses).
    pub opcode: u8,
    /// Payload bytes, already length-checked against the cap.
    pub payload: Vec<u8>,
}

/// Encodes a frame: magic, opcode, BE length, payload.
pub fn encode_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(opcode);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes a frame to `w`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, opcode: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(opcode, payload))?;
    w.flush()
}

/// Reads one frame from `r`, enforcing `max_payload` *before*
/// allocating.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary
/// (the peer hung up between requests).
///
/// # Errors
///
/// [`ServeError::Proto`] on bad magic, an oversized declared length,
/// or a stream that ends mid-frame; [`ServeError::Io`] on any other
/// read failure.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Option<Frame>, ServeError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte by hand so clean EOF at a boundary is not an error.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            return read_frame(r, max_payload);
        }
        Err(e) => return Err(ServeError::Io(e)),
    }
    read_exact(r, &mut header[1..]).map_err(truncated)?;
    if header[..4] != MAGIC {
        return Err(ServeError::proto(format!(
            "bad magic {:02x}{:02x}{:02x}{:02x}",
            header[0], header[1], header[2], header[3]
        )));
    }
    let opcode = header[4];
    let len = u32::from_be_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(ServeError::proto(format!(
            "declared payload {len} exceeds the {max_payload}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact(r, &mut payload).map_err(truncated)?;
    Ok(Some(Frame { opcode, payload }))
}

fn truncated(e: io::Error) -> ServeError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ServeError::proto("stream ended mid-frame")
    } else {
        ServeError::Io(e)
    }
}

/// `Read::read_exact` with `Interrupted` retried (the std one does
/// this too; spelled out so short-read fault injection behaves).
fn read_exact<R: Read>(r: &mut R, mut buf: &mut [u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_encode_and_parse_round_trip() {
        for req in [
            Request::GetManifest,
            Request::GetBlock(7),
            Request::DecodeBlock(u64::MAX),
            Request::Stats,
            Request::Shutdown,
        ] {
            let bytes = req.encode();
            let frame = read_frame(&mut bytes.as_slice(), MAX_REQUEST_PAYLOAD).unwrap().unwrap();
            assert_eq!(Request::parse(&frame).unwrap(), req);
        }
    }

    #[test]
    fn clean_eof_is_none_midframe_is_proto_error() {
        assert!(read_frame(&mut [].as_slice(), 64).unwrap().is_none());
        let bytes = Request::GetBlock(3).encode();
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut], 64).unwrap_err();
            assert!(matches!(err, ServeError::Proto(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_and_oversized_length_are_rejected() {
        let mut bytes = Request::Stats.encode();
        bytes[0] = b'X';
        assert!(matches!(read_frame(&mut bytes.as_slice(), 64).unwrap_err(), ServeError::Proto(_)));

        let mut huge = encode_frame(0x01, &[]);
        huge[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut huge.as_slice(), MAX_REQUEST_PAYLOAD).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn unknown_opcode_and_size_mismatch_are_rejected() {
        let frame = Frame { opcode: 0x7f, payload: vec![] };
        assert!(Request::parse(&frame).is_err());
        let frame = Frame { opcode: 0x02, payload: vec![0; 4] };
        assert!(Request::parse(&frame).is_err());
        let frame = Frame { opcode: 0x04, payload: vec![1] };
        assert!(Request::parse(&frame).is_err());
    }

    #[test]
    fn statuses_round_trip_and_cover_every_error_class() {
        for status in [
            Status::Ok,
            Status::BadRequest,
            Status::NotFound,
            Status::Corrupt,
            Status::Busy,
            Status::Internal,
        ] {
            assert_eq!(Status::from_code(status.code()), Some(status));
        }
        assert_eq!(Status::from_code(0x00), None);
        assert_eq!(Status::from_code(0xe4), None, "0xe4 is unassigned");
        assert_eq!(Status::for_error(&ServeError::Busy), Status::Busy);
        assert_eq!(Status::for_error(&ServeError::proto("x")), Status::BadRequest);
    }
}
