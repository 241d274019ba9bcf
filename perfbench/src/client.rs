//! Minimal blocking HTTP/1.1 client over one keep-alive connection, timing
//! the first and last byte of every response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// `(head_end, body_len)` of the response at the front of `buf`.
    last: (usize, usize),
}

/// One framed response; its body stays readable through
/// [`HttpClient::body`] until the next request.
pub struct Response {
    pub status: u16,
    pub first_byte: Instant,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let mut client = HttpClient {
            addr,
            stream: None,
            buf: Vec::new(),
            last: (0, 0),
        };
        client.stream()?;
        Ok(client)
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.buf.clear();
            self.last = (0, 0);
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Send one serialized request and read its `Content-Length` framed
    /// response. On any error the connection is dropped and the next call
    /// reconnects.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        let result = self.exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        let (head, len) = self.last;
        self.buf.drain(..head + len);
        self.last = (0, 0);
        self.stream()?.write_all(request)?;
        let mut first_byte = None;
        let mut chunk = [0u8; 64 << 10];
        let (status, head_end, body_len) = loop {
            if let Some(framed) = frame(&self.buf)? {
                break framed;
            }
            let n = self.stream()?.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "gateway closed mid-response",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let have = self.buf.len();
        if have < head_end + body_len {
            self.buf.resize(head_end + body_len, 0);
            let stream = self.stream.as_mut().expect("connected above");
            stream.read_exact(&mut self.buf[have..])?;
        }
        self.last = (head_end, body_len);
        Ok(Response {
            status,
            first_byte: first_byte.unwrap_or_else(Instant::now),
        })
    }

    /// Body of the last response.
    pub fn body(&self) -> &[u8] {
        let (head, len) = self.last;
        &self.buf[head..head + len]
    }
}

/// `(status, head_bytes, body_bytes)` once a whole response head is
/// buffered.
fn frame(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let len = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| bad("response without Content-Length"))?;
    Ok(Some((status, end + 4, len)))
}

/// The number following `"key":` in a compact JSON text, searched in
/// `hay` only (callers pass the head or tail of a large body).
pub fn number_after(hay: &[u8], key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let at = hay
        .windows(pattern.len())
        .position(|w| w == pattern.as_bytes())?
        + pattern.len();
    let rest = &hay[at..];
    let end = rest
        .iter()
        .position(|&b| b == b',' || b == b'}' || b == b']')
        .unwrap_or(rest.len());
    let text = std::str::from_utf8(&rest[..end]).ok()?;
    match text {
        "true" => Some(1.0),
        "false" => Some(0.0),
        _ => text.parse().ok(),
    }
}

/// The string following `"key":` in `hay`.
pub fn string_after<'a>(hay: &'a [u8], key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let at = hay
        .windows(pattern.len())
        .position(|w| w == pattern.as_bytes())?
        + pattern.len();
    let rest = &hay[at..];
    let end = rest.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&rest[..end]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_extracts() {
        let buf = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(frame(buf).unwrap(), Some((200, 38, 5)));
        assert_eq!(frame(b"HTTP/1.1 200 OK\r\n").unwrap(), None);
        let body = br#"{"outcome":"hit","degraded":null,"result":{"conductance":0.25,"x":[1]},"t":{"total_ns":17}}"#;
        assert_eq!(string_after(body, "outcome"), Some("hit"));
        assert_eq!(number_after(body, "conductance"), Some(0.25));
        assert_eq!(number_after(body, "total_ns"), Some(17.0));
        assert_eq!(number_after(body, "missing"), None);
    }
}
