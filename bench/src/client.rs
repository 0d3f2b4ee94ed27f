//! A minimal blocking HTTP/1.1 client: one keep-alive connection with
//! `TCP_NODELAY`, `Content-Length` framing both ways.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response still in flight must arrive within this long; a stuck
/// server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    /// The server announced `connection: close` on the last response.
    closing: bool,
    /// Connections re-opened because the server closed the previous one.
    pub reconnects: u64,
    head: Vec<u8>,
    line: String,
}

/// Render one request.  `body` may be empty (`GET`).
pub fn render(out: &mut Vec<u8>, method: &str, path: &str, body: &str) {
    out.clear();
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: rqbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
}

fn open(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(BufReader::with_capacity(64 << 10, stream))
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            reader: open(addr)?,
            closing: false,
            reconnects: 0,
            head: Vec::new(),
            line: String::new(),
        })
    }

    /// Re-open the connection if the server said it would close it (it
    /// does after `max_requests_per_connection`).  Callers do this
    /// before starting a request's stopwatch: a reconnect is connection
    /// lifecycle, not request latency, and never a failure.
    pub fn ensure_open(&mut self) -> io::Result<()> {
        if self.closing {
            self.reader = open(self.addr)?;
            self.closing = false;
            self.reconnects += 1;
        }
        Ok(())
    }

    /// After an I/O error the stream position is unknown: drop the
    /// connection and open a fresh one at the next request.
    pub fn mark_broken(&mut self) {
        self.closing = true;
    }

    /// Send `raw` (a rendered request) and read the response body into
    /// `body`.  Returns the status and the time from the first byte
    /// sent to the last body byte read.
    pub fn exchange(&mut self, raw: &[u8], body: &mut Vec<u8>) -> io::Result<(u16, Duration)> {
        self.ensure_open()?;
        let start = Instant::now();
        self.reader.get_mut().write_all(raw)?;
        let status = self.read_response(body)?;
        Ok((status, start.elapsed()))
    }

    /// One request built on the spot — for the control requests
    /// (`/stats`, `/metrics`, `/healthz`) outside the timed loops.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut raw = std::mem::take(&mut self.head);
        render(&mut raw, method, path, body);
        let mut out = Vec::new();
        let result = self.exchange(&raw, &mut out);
        self.head = raw;
        let (status, _) = result?;
        String::from_utf8(out)
            .map(|text| (status, text))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not UTF-8"))
    }

    fn read_response(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        let status: u16 = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length: Option<usize> = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad("header line without `:`"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                self.closing = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        // The server's own bodies top out near 100 KB here; refuse to
        // allocate for a length no endpoint could have produced.
        if length > 256 << 20 {
            return Err(bad("response body implausibly large"));
        }
        body.clear();
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-thread server that answers every request with `bodies[i]`
    /// and closes the connection after each `close_every` responses.
    fn serve(listener: TcpListener, responses: usize, close_every: usize) {
        let mut served = 0;
        while served < responses {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            for on_conn in 1..=close_every {
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap() == 0 {
                        return;
                    }
                    if let Some(v) = line.strip_prefix("content-length: ") {
                        length = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                let connection = if on_conn == close_every {
                    "close"
                } else {
                    "keep-alive"
                };
                let reply = format!("echo:{}", String::from_utf8(body).unwrap());
                write!(
                    reader.get_mut(),
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{reply}",
                    reply.len()
                )
                .unwrap();
                served += 1;
                if served == responses {
                    return;
                }
            }
        }
    }

    #[test]
    fn keeps_alive_and_reconnects_when_told_to_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, 5, 2));
        let mut conn = Conn::connect(addr).unwrap();
        for i in 0..5 {
            let (status, text) = conn.call("POST", "/x", &format!("b{i}")).unwrap();
            assert_eq!((status, text), (200, format!("echo:b{i}")));
        }
        // Closed after responses 2 and 4; the 5th ran on a third connection.
        assert_eq!(conn.reconnects, 2);
        server.join().unwrap();
    }
}
