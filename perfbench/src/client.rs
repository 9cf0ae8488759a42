//! A load-generating client: one keep-alive TCP connection per client
//! thread, requests written with `Request::write_to` and responses read
//! through the push `ResponseParser`.

use p3_net::{Request, Response, ResponseParser};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, buf: vec![0; 64 << 10] }
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Send one request on the kept-alive connection. A connection the
    /// server closed while idle is reopened once before the request is
    /// written; an error after the write is returned, never replayed.
    pub fn send(&mut self, mut req: Request) -> Result<Response, String> {
        req.headers.set("host", self.addr.to_string());
        let mut wire = Vec::with_capacity(req.body.len() + 256);
        req.write_to(&mut wire).map_err(|e| e.to_string())?;
        if self.stream.is_some() && self.peer_closed() {
            self.stream = None;
        }
        let result = self.exchange(&wire);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// True if the idle connection has been closed by the server.
    fn peer_closed(&mut self) -> bool {
        let Some(s) = self.stream.as_mut() else { return true };
        if s.set_nonblocking(true).is_err() {
            return true;
        }
        let closed = match s.read(&mut [0u8; 1]) {
            Ok(_) => true,
            Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
        };
        closed || s.set_nonblocking(false).is_err()
    }

    fn exchange(&mut self, wire: &[u8]) -> Result<Response, String> {
        let stream = self.connect().map_err(|e| format!("connect: {e}"))?;
        stream.write_all(wire).map_err(|e| format!("write: {e}"))?;
        let mut parser = ResponseParser::new();
        loop {
            let stream = self.stream.as_mut().expect("connected");
            let n = stream.read(&mut self.buf).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            let mut chunk = &self.buf[..n];
            while !chunk.is_empty() {
                let (used, msg) = parser.feed(chunk).map_err(|e| format!("parse: {e}"))?;
                if let Some(resp) = msg {
                    if resp
                        .headers
                        .get("connection")
                        .is_some_and(|c| c.eq_ignore_ascii_case("close"))
                    {
                        self.stream = None;
                    }
                    return Ok(resp);
                }
                if used == 0 {
                    break;
                }
                chunk = &chunk[used..];
            }
        }
    }
}
