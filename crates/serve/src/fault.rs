//! Fault injection for the serving tier's tests.
//!
//! [`FaultReader`] and [`FaultStream`] wrap any stream and inject the
//! failure modes a real deployment sees: short reads, an I/O error at
//! byte N, silent truncation, and mid-request disconnects.  [`duplex`]
//! is an in-memory, blocking, bidirectional pipe so server connection
//! handlers can be driven without sockets.  This module is compiled
//! into the library (not `#[cfg(test)]`) because integration tests and
//! the conformance suite in `tests/` use it too.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// A fault to inject at a byte position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Pass everything through unchanged.
    None,
    /// Return at most this many bytes per `read` call.
    ShortReads(usize),
    /// Fail with [`io::ErrorKind::ConnectionReset`] once the position
    /// reaches this byte offset.
    ErrorAt(u64),
    /// Report end-of-stream once the position reaches this offset.
    TruncateAt(u64),
}

impl Fault {
    /// Applies the fault given the current position and the number of
    /// bytes the wrapped operation could move: returns the allowed
    /// count, `Ok(0)` meaning EOF.
    fn allow(&self, pos: u64, want: usize) -> io::Result<usize> {
        match *self {
            Fault::None => Ok(want),
            Fault::ShortReads(max) => Ok(want.min(max.max(1))),
            Fault::ErrorAt(at) if pos >= at => {
                Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected fault"))
            }
            Fault::ErrorAt(at) => Ok(want.min((at - pos) as usize)),
            Fault::TruncateAt(at) if pos >= at => Ok(0),
            Fault::TruncateAt(at) => Ok(want.min((at - pos) as usize)),
        }
    }
}

/// A [`Read`] wrapper injecting a [`Fault`].
pub struct FaultReader<R> {
    inner: R,
    fault: Fault,
    pos: u64,
}

impl<R: Read> FaultReader<R> {
    /// Wraps `inner` with `fault`.
    pub fn new(inner: R, fault: Fault) -> Self {
        Self { inner, fault, pos: 0 }
    }
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let allowed = self.fault.allow(self.pos, buf.len())?;
        if allowed == 0 {
            return Ok(0);
        }
        let n = self.inner.read(&mut buf[..allowed])?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// A [`Read`]`+`[`Write`] wrapper injecting independent faults on each
/// direction (a write fault models a mid-request disconnect).
pub struct FaultStream<S> {
    inner: S,
    read_fault: Fault,
    write_fault: Fault,
    read_pos: u64,
    write_pos: u64,
}

impl<S> FaultStream<S> {
    /// Wraps `inner` with per-direction faults.
    pub fn new(inner: S, read_fault: Fault, write_fault: Fault) -> Self {
        Self { inner, read_fault, write_fault, read_pos: 0, write_pos: 0 }
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let allowed = self.read_fault.allow(self.read_pos, buf.len())?;
        if allowed == 0 {
            return Ok(0);
        }
        let n = self.inner.read(&mut buf[..allowed])?;
        self.read_pos += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let allowed = self.write_fault.allow(self.write_pos, buf.len())?;
        if allowed == 0 {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected disconnect"));
        }
        let n = self.inner.write(&buf[..allowed])?;
        self.write_pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One direction of the in-memory pipe.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

struct PipeState {
    data: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(PipeState { data: VecDeque::new(), closed: false }),
            readable: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().expect("pipe lock").closed = true;
        self.readable.notify_all();
    }
}

/// One end of an in-memory bidirectional byte stream.
///
/// Reads block until the peer writes or hangs up; dropping an end
/// closes both directions, so the peer sees EOF on read and
/// `BrokenPipe` on write — exactly the socket disconnect semantics
/// the fault tests need.
pub struct DuplexStream {
    incoming: Arc<Pipe>,
    outgoing: Arc<Pipe>,
}

/// Creates a connected pair of [`DuplexStream`] ends.
pub fn duplex() -> (DuplexStream, DuplexStream) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    (
        DuplexStream { incoming: b_to_a.clone(), outgoing: a_to_b.clone() },
        DuplexStream { incoming: a_to_b, outgoing: b_to_a },
    )
}

impl DuplexStream {
    /// Splits this end into independently owned read and write
    /// halves (what [`Server::handle_connection`] takes).  Dropping a
    /// half closes only that direction.
    ///
    /// [`Server::handle_connection`]: crate::Server::handle_connection
    pub fn split(self) -> (DuplexReader, DuplexWriter) {
        let incoming = self.incoming.clone();
        let outgoing = self.outgoing.clone();
        std::mem::forget(self); // halves take over the close duties
        (DuplexReader { pipe: incoming }, DuplexWriter { pipe: outgoing })
    }
}

/// The read half of a split [`DuplexStream`].
pub struct DuplexReader {
    pipe: Arc<Pipe>,
}

/// The write half of a split [`DuplexStream`].
pub struct DuplexWriter {
    pipe: Arc<Pipe>,
}

impl Read for DuplexReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        read_pipe(&self.pipe, buf)
    }
}

impl Drop for DuplexReader {
    fn drop(&mut self) {
        self.pipe.close();
    }
}

impl Write for DuplexWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        write_pipe(&self.pipe, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexWriter {
    fn drop(&mut self) {
        self.pipe.close();
    }
}

fn read_pipe(pipe: &Pipe, buf: &mut [u8]) -> io::Result<usize> {
    if buf.is_empty() {
        return Ok(0);
    }
    let mut state = pipe.state.lock().expect("pipe lock");
    while state.data.is_empty() && !state.closed {
        state = pipe.readable.wait(state).expect("pipe lock");
    }
    if state.data.is_empty() {
        return Ok(0); // peer hung up
    }
    let n = buf.len().min(state.data.len());
    for slot in buf[..n].iter_mut() {
        *slot = state.data.pop_front().expect("checked non-empty");
    }
    Ok(n)
}

fn write_pipe(pipe: &Pipe, buf: &[u8]) -> io::Result<usize> {
    let mut state = pipe.state.lock().expect("pipe lock");
    if state.closed {
        return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
    }
    state.data.extend(buf.iter().copied());
    pipe.readable.notify_all();
    Ok(buf.len())
}

impl Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        read_pipe(&self.incoming, buf)
    }
}

impl Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        write_pipe(&self.outgoing, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        self.incoming.close();
        self.outgoing.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_reads_still_deliver_everything() {
        let data: Vec<u8> = (0..100).collect();
        let mut r = FaultReader::new(data.as_slice(), Fault::ShortReads(3));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn error_at_byte_n_fires_exactly_there() {
        let data = [7u8; 100];
        let mut r = FaultReader::new(data.as_slice(), Fault::ErrorAt(40));
        let mut out = [0u8; 100];
        let mut got = 0;
        let err = loop {
            match r.read(&mut out[got..]) {
                Ok(n) => got += n,
                Err(e) => break e,
            }
        };
        assert_eq!(got, 40);
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn truncate_at_byte_n_is_a_clean_eof() {
        let data = [9u8; 100];
        let mut r = FaultReader::new(data.as_slice(), Fault::TruncateAt(25));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 25);
    }

    #[test]
    fn duplex_round_trips_and_signals_hangup() {
        let (mut a, mut b) = duplex();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after peer drop");
        assert_eq!(b.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn duplex_read_blocks_until_data_arrives() {
        let (mut a, mut b) = duplex();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.write_all(b"abc").unwrap();
        assert_eq!(&t.join().unwrap(), b"abc");
    }
}
