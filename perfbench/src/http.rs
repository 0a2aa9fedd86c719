//! The benchmark's own HTTP/1.1 client. It keeps its connection open
//! between requests unless the server answers `Connection: close`, in
//! which case the next request reconnects; `connects` counts how often.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

use crate::trace::{SpanId, Tracer};

/// Upper bound on a response head.
const MAX_HEAD_BYTES: usize = 64 * 1024;

#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// The server's `x-pae-request` id.
    pub request_id: Option<u64>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: Vec::with_capacity(16 * 1024),
            connects: 0,
        }
    }

    /// Sends one request and reads the whole reply. A kept-alive
    /// connection the server closed while idle is retried once on a
    /// fresh connection.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<Reply, String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        let reused = self.conn.is_some();
        match self.exchange(request.as_bytes(), tracer, parent) {
            Err(_) if reused => self.exchange(request.as_bytes(), tracer, parent),
            other => other,
        }
    }

    fn exchange(
        &mut self,
        request: &[u8],
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<Reply, String> {
        if self.conn.is_none() {
            let span = tracer.begin("http.connect", parent, None);
            let stream =
                TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
            tracer.end(span);
            stream
                .set_nodelay(true)
                .map_err(|e| format!("set_nodelay: {e}"))?;
            self.connects += 1;
            self.conn = Some(stream);
        }
        let stream = self.conn.as_mut().expect("connection opened above");
        let span = tracer.begin("http.exchange", parent, None);
        let result = stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))
            .and_then(|()| read_reply(stream, &mut self.buf));
        tracer.end(span);
        match result {
            Ok((reply, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Reads one response; returns it and whether the connection stays open.
fn read_reply(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(Reply, bool), String> {
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err("response head too large".to_owned());
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("connection closed before the response head".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length = None;
    let mut keep_alive = true;
    let mut request_id = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => content_length = value.parse::<usize>().ok(),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            "x-pae-request" => request_id = value.parse().ok(),
            _ => {}
        }
    }
    let length = content_length.ok_or("response has no valid Content-Length")?;
    let total = head_end + 4 + length;
    while buf.len() < total {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("recv body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_owned());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end + 4..total].to_vec())
        .map_err(|_| "response body is not UTF-8")?;
    Ok((
        Reply {
            status,
            body,
            request_id,
        },
        keep_alive,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Serves `replies` in order on one listener, one connection per
    /// reply unless the reply keeps the connection alive.
    fn serve(replies: Vec<(&'static str, bool)>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            let mut replies = replies.into_iter().peekable();
            while replies.peek().is_some() {
                let (mut s, _) = listener.accept().expect("accept");
                accepted += 1;
                for (body, keep) in replies.by_ref() {
                    let mut buf = [0u8; 4096];
                    let mut got = Vec::new();
                    while !got.windows(4).any(|w| w == b"\r\n\r\n") {
                        let n = s.read(&mut buf).expect("read");
                        got.extend_from_slice(&buf[..n]);
                    }
                    let conn = if keep { "keep-alive" } else { "close" };
                    let head = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nx-pae-request: 9\r\n\
                         Connection: {conn}\r\n\r\n",
                        body.len()
                    );
                    s.write_all(head.as_bytes()).expect("write");
                    s.write_all(body.as_bytes()).expect("write");
                    if !keep {
                        break;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn reconnects_only_after_connection_close() {
        let (addr, server) = serve(vec![("a", true), ("bb", false), ("ccc", false)]);
        let mut client = Client::new(addr);
        let mut tracer = Tracer::new(Instant::now(), false);
        let bodies: Vec<String> = (0..3)
            .map(|_| {
                client
                    .send("GET", "/", "", &mut tracer, None)
                    .expect("reply")
                    .body
            })
            .collect();
        assert_eq!(bodies, ["a", "bb", "ccc"]);
        assert_eq!(client.connects, 2);
        assert_eq!(server.join().expect("server"), 2);
    }
}
