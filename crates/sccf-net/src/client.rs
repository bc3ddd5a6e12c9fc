//! One persistent, *pipelined* client connection to a shard server.
//!
//! A [`Connection`] is split into independent send and receive halves
//! over one TCP stream: [`Connection::send`] (or, inside the crate, the
//! non-flushing `enqueue_frame` of a request framed once) appends a
//! framed [`Request`] to an outbox and bumps a FIFO in-flight counter;
//! [`Connection::recv`] awaits the response matching the *oldest*
//! unanswered request. Multiple requests may be in flight at once — the
//! wire protocol carries no correlation ids because none are needed:
//! the server handles each connection's requests strictly in arrival
//! order and answers in the same order, so the k-th outstanding `recv`
//! always pairs with the k-th outstanding `send`. That same
//! per-connection FIFO is what gives the fleet router its per-user
//! read-your-writes guarantee — a user's events and the recommendation
//! that must observe them travel the same connection to the same owning
//! server.
//!
//! A single round trip is [`Connection::call`] = `send` + `recv` (it
//! refuses to run while other responses are outstanding).
//!
//! Transport failures *poison* the connection: once any read or write
//! fails, the response stream can no longer be trusted to line up with
//! the in-flight queue, so every subsequent operation fails fast with
//! a typed [`ServingError::Wire`] until the router replaces the
//! connection (see `FleetRouter::reconnect`).

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sccf_core::Admission;
use sccf_serving::api::ServingError;
use sccf_util::framing::build_frame;

use crate::proto::{read_message, Request, Response, PROTOCOL_VERSION};

fn wire<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> ServingError + '_ {
    move |e| ServingError::Wire(format!("{context}: {e}"))
}

/// A persistent framed connection to one shard server, with pipelined
/// send/receive halves and a FIFO in-flight queue.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Framed requests not yet handed to the kernel.
    outbox: Vec<u8>,
    /// Requests sent (or queued) whose responses have not been received.
    in_flight: usize,
    buf: Vec<u8>,
    poisoned: Option<String>,
}

impl Connection {
    /// Connect to `addr` (e.g. `127.0.0.1:7400`). Transport failures
    /// surface as [`ServingError::Wire`].
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Self, ServingError> {
        let stream = TcpStream::connect(&addr).map_err(wire(&format!("connecting to {addr:?}")))?;
        // Pipelining queues several small frames on one connection; with
        // Nagle on, every frame after the first unacked one waits for the
        // peer's (possibly delayed) ACK, which throttles depth > 1 back to
        // sequential speed. Requests are already batched at the framing
        // layer, so disable it.
        stream
            .set_nodelay(true)
            .map_err(wire("setting TCP_NODELAY"))?;
        let write_half = stream.try_clone().map_err(wire("cloning stream"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer: write_half,
            outbox: Vec::new(),
            in_flight: 0,
            buf: Vec::new(),
            poisoned: None,
        })
    }

    /// Bound how long one blocking socket operation may take. `None`
    /// removes the bound.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServingError> {
        let stream = self.reader.get_ref();
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(wire("setting timeout"))
    }

    /// Number of requests whose responses are still owed by the server
    /// (including any still sitting unflushed in the outbox).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Why this connection is dead, if it is.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Mark the connection unusable; every later operation fails fast.
    fn poison(&mut self, reason: String) -> ServingError {
        let err = ServingError::Wire(reason.clone());
        self.poisoned = Some(reason);
        err
    }

    fn check_poisoned(&self) -> Result<(), ServingError> {
        match &self.poisoned {
            Some(reason) => Err(ServingError::Wire(format!("connection poisoned: {reason}"))),
            None => Ok(()),
        }
    }

    /// Encode `req` and wrap it in its frame: the exact bytes a
    /// connection queues. A request too large for one frame is a typed
    /// error, reported before any connection is touched.
    pub(crate) fn frame(req: &Request) -> Result<Vec<u8>, ServingError> {
        build_frame(|out| req.encode_into(out)).map_err(wire("framing request"))
    }

    /// Append one [`Connection::frame`] to the outbox *without* touching
    /// the socket, and count it in flight. Pair every enqueue with
    /// exactly one [`Connection::recv`]; flush happens on
    /// [`Connection::recv`] at the latest, or explicitly via
    /// [`Connection::flush_outbox`].
    pub(crate) fn enqueue_frame(&mut self, frame: &[u8]) -> Result<(), ServingError> {
        self.check_poisoned()?;
        self.outbox.extend_from_slice(frame);
        self.in_flight += 1;
        Ok(())
    }

    /// Send `req` now: frame, enqueue, blocking flush. The response is
    /// owed; collect it with [`Connection::recv`]. A request too large
    /// for one frame is a typed error that leaves the connection as it
    /// was: nothing queued, nothing owed, not poisoned.
    pub fn send(&mut self, req: &Request) -> Result<(), ServingError> {
        self.enqueue_frame(&Self::frame(req)?)?;
        self.flush_outbox()
    }

    /// Blocking flush of everything in the outbox (one `write_all`).
    pub fn flush_outbox(&mut self) -> Result<(), ServingError> {
        self.check_poisoned()?;
        let sent = self.writer.write_all(&self.outbox);
        self.outbox.clear();
        sent.map_err(|e| self.poison(format!("sending request: {e}")))
    }

    /// Await the response for the *oldest* in-flight request. Never
    /// hangs waiting for a response that was not requested: calling
    /// with nothing in flight is a typed [`ServingError::Wire`].
    /// Remote [`Response::Err`]s are *not* unwrapped here — matching
    /// on the success variant is the caller's job (see
    /// [`Response::into_result`]).
    pub fn recv(&mut self) -> Result<Response, ServingError> {
        self.check_poisoned()?;
        if self.in_flight == 0 {
            return Err(ServingError::Wire(
                "recv with no request in flight".to_string(),
            ));
        }
        // A reply can only arrive for a request the kernel has seen:
        // finish our half first so we cannot deadlock on a full socket.
        self.flush_outbox()?;
        match read_message(&mut self.reader, &mut self.buf) {
            Ok(Some(())) => {
                self.in_flight -= 1;
                match Response::decode(&self.buf) {
                    Ok(resp) => Ok(resp),
                    Err(e) => Err(self.poison(format!("undecodable response: {e}"))),
                }
            }
            Ok(None) => Err(self.poison(format!(
                "server closed the connection with {} response(s) in flight",
                self.in_flight
            ))),
            Err(e) => Err(self.poison(format!("reading response: {e}"))),
        }
    }

    /// One strict request/response round trip. Refuses to interleave
    /// with pipelined traffic: any other response in flight is an error,
    /// because the next frame on the wire would not be the answer to
    /// `req`.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServingError> {
        self.check_poisoned()?;
        if self.in_flight != 0 {
            return Err(ServingError::Wire(format!(
                "request while {} pipelined response(s) are in flight",
                self.in_flight
            )));
        }
        self.send(req)?;
        self.recv()
    }

    /// [`Connection::request`] + error unwrapping in one call.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServingError> {
        self.request(req)?.into_result()
    }

    /// The [`Request::Hello`] handshake: verifies the protocol version
    /// and returns the server's identity in the fleet — its
    /// [`Admission`] and its window `(base, count, total)` of the
    /// global ring.
    pub fn hello(&mut self) -> Result<(Admission, usize, usize, usize), ServingError> {
        match self.call(&Request::Hello {
            protocol: PROTOCOL_VERSION,
        })? {
            Response::HelloOk {
                protocol,
                admission,
                base,
                count,
                total,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(ServingError::Wire(format!(
                        "server speaks protocol {protocol}, this build speaks {PROTOCOL_VERSION}"
                    )));
                }
                Ok((admission, base as usize, count as usize, total as usize))
            }
            other => Err(other.unexpected("HelloOk")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::write_message;
    use sccf_util::framing::MAX_FRAME_LEN;
    use std::io::BufWriter;
    use std::net::TcpListener;

    /// Regression: a request above the frame limit used to panic the
    /// router inside the frame encoder. It is a typed error that leaves
    /// the connection exactly as it was — still usable.
    #[test]
    fn oversized_request_fails_typed_and_leaves_the_connection_usable() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A one-connection server that answers every frame with Pong.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            let mut buf = Vec::new();
            while let Ok(Some(())) = read_message(&mut reader, &mut buf) {
                write_message(&mut writer, &Response::Pong.encode()).expect("reply");
                writer.flush().expect("flush");
            }
        });

        let mut conn = Connection::connect(addr).expect("dial");
        match conn.send(&Request::InstallTier(vec![0; MAX_FRAME_LEN + 1])) {
            Err(ServingError::Wire(msg)) => {
                let limit = MAX_FRAME_LEN.to_string();
                assert!(msg.contains(&limit), "names the limit: {msg}");
                assert!(msg.contains("bytes exceeds"), "names the size: {msg}");
            }
            other => panic!("expected a typed Wire error, got {other:?}"),
        }
        assert_eq!(conn.in_flight(), 0, "nothing is owed for a refused request");
        assert!(
            conn.poison_reason().is_none(),
            "the stream is still aligned"
        );
        assert!(matches!(conn.call(&Request::Ping), Ok(Response::Pong)));

        drop(conn);
        server.join().expect("server thread");
    }
}
