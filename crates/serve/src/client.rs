//! A minimal blocking client for the serve protocol, used by
//! `atspeedctl` and the end-to-end tests.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use atspeed_core::PipelineConfig;

use crate::protocol::{
    read_frame, write_frame, Frame, FrameKind, ProtocolError, ResponseHeader, SubmitRequest,
};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or framing trouble.
    Protocol(ProtocolError),
    /// The server replied with an `Error` frame.
    Server(String),
    /// The server replied with a frame the call did not expect.
    Unexpected(FrameKind),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(kind) => write!(f, "unexpected {kind:?} reply"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// A successful submission: the volatile header plus the cached body.
#[derive(Debug, Clone)]
pub struct SubmitReply {
    /// Hit/miss, fingerprints, server-side wall time.
    pub header: ResponseHeader,
    /// The canonical result body (byte-identical across cache hits).
    pub body: Vec<u8>,
}

/// One connection to a serve instance.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, frame)?;
        let reply = read_frame(&mut self.stream)?;
        if reply.kind == FrameKind::Error {
            return Err(ClientError::Server(reply.text_payload()));
        }
        Ok(reply)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<String, ClientError> {
        let reply = self.roundtrip(&Frame::text(FrameKind::Ping, ""))?;
        match reply.kind {
            FrameKind::Pong => Ok(reply.text_payload()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Submits a job and waits for the result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries the server's reason when the job
    /// failed (bad netlist, pipeline error, panic).
    pub fn submit(
        &mut self,
        name: &str,
        bench: &str,
        config: &PipelineConfig,
    ) -> Result<SubmitReply, ClientError> {
        let request = SubmitRequest {
            name: name.to_owned(),
            config: *config,
            bench: bench.to_owned(),
        };
        let reply = self.roundtrip(&Frame::text(FrameKind::Submit, request.encode()))?;
        let header = match reply.kind {
            FrameKind::ResultHeader => ResponseHeader::decode(&reply.text_payload())?,
            other => return Err(ClientError::Unexpected(other)),
        };
        let body = read_frame(&mut self.stream)?;
        match body.kind {
            FrameKind::ResultBody => Ok(SubmitReply {
                header,
                body: body.payload,
            }),
            FrameKind::Error => Err(ClientError::Server(body.text_payload())),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Server and cache statistics as `key = value` lines.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let reply = self.roundtrip(&Frame::text(FrameKind::Stats, ""))?;
        match reply.kind {
            FrameKind::StatsReply => Ok(reply.text_payload()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Asks the server to stop accepting and drain.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let reply = self.roundtrip(&Frame::text(FrameKind::Shutdown, ""))?;
        match reply.kind {
            FrameKind::Pong => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
