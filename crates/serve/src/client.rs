//! Reference protocol client.
//!
//! [`Client`] is generic over any `Read + Write` stream — Unix and TCP
//! sockets for real use, the in-memory [`duplex`](crate::fault::duplex)
//! pipe for tests.  It mirrors the server's defensive caps: response
//! payloads are length-checked against [`MAX_RESPONSE_PAYLOAD`] before
//! allocation, and an unknown status byte is a protocol error, never a
//! panic.

use crate::error::ServeError;
use crate::proto::{read_frame, Request, Status, MAX_RESPONSE_PAYLOAD};
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

/// A synchronous protocol client over one connection.
pub struct Client<S> {
    stream: S,
}

impl Client<std::os::unix::net::UnixStream> {
    /// Connects to a daemon's Unix socket.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn connect_unix(path: &Path) -> Result<Self, ServeError> {
        Ok(Self::new(std::os::unix::net::UnixStream::connect(path)?))
    }
}

impl Client<std::net::TcpStream> {
    /// Connects to a daemon's TCP address.
    ///
    /// # Errors
    ///
    /// The underlying connect failure.
    pub fn connect_tcp(addr: &str) -> Result<Self, ServeError> {
        Ok(Self::new(std::net::TcpStream::connect(addr)?))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Self {
        Self { stream }
    }

    /// Sends `req` and returns the `Ok` payload, converting typed
    /// error statuses back into [`ServeError`] values.
    fn call(&mut self, req: Request) -> Result<Vec<u8>, ServeError> {
        let frame = match self.stream.write_all(&req.encode()).and_then(|()| self.stream.flush()) {
            Ok(()) => read_frame(&mut self.stream, MAX_RESPONSE_PAYLOAD)?
                .ok_or_else(|| ServeError::proto("server closed the connection"))?,
            // A daemon at its connection cap sends `Busy` and closes
            // without reading, so the reply can outlive the pipe.
            Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {
                read_frame(&mut self.stream, MAX_RESPONSE_PAYLOAD).ok().flatten().ok_or(e)?
            }
            Err(e) => return Err(e.into()),
        };
        match Status::from_code(frame.opcode) {
            Some(Status::Ok) => Ok(frame.payload),
            Some(status) => {
                Err(status.into_error(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            None => Err(ServeError::proto(format!("unknown status 0x{:02x}", frame.opcode))),
        }
    }

    /// Fetches the artifact's info record (the `get-manifest` reply).
    ///
    /// # Errors
    ///
    /// Any transport or server-reported failure.
    pub fn get_manifest(&mut self) -> Result<Vec<u8>, ServeError> {
        self.call(Request::GetManifest)
    }

    /// Fetches compressed block `n` as `(data, uncompressed_len)`.
    ///
    /// # Errors
    ///
    /// Any transport or server-reported failure, including a response
    /// too short to carry the length prefix.
    pub fn get_block(&mut self, n: u64) -> Result<(Vec<u8>, usize), ServeError> {
        let payload = self.call(Request::GetBlock(n))?;
        if payload.len() < 4 {
            return Err(ServeError::proto("get-block response shorter than its length prefix"));
        }
        let ulen = u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
        Ok((payload[4..].to_vec(), ulen))
    }

    /// Fetches and decompresses block `n`.
    ///
    /// # Errors
    ///
    /// Any transport or server-reported failure.
    pub fn decode_block(&mut self, n: u64) -> Result<Vec<u8>, ServeError> {
        self.call(Request::DecodeBlock(n))
    }

    /// Fetches the daemon's always-on stats JSON.
    ///
    /// # Errors
    ///
    /// Any transport or server-reported failure.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        let payload = self.call(Request::Stats)?;
        String::from_utf8(payload).map_err(|_| ServeError::proto("stats response not UTF-8"))
    }

    /// Asks the daemon to shut down (acknowledged before it stops).
    ///
    /// # Errors
    ///
    /// Any transport or server-reported failure.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.call(Request::Shutdown).map(|_| ())
    }
}
