//! Minimal server-side HTTP/1.1: request parsing (from any [`Read`]er)
//! and response writing over a [`TcpStream`], with hard caps on header
//! and body sizes.
//!
//! Only what the suite-store protocol needs is implemented: one request
//! per connection (`Connection: close` both ways), `Content-Length`
//! framing (no chunked encoding), no compression, no TLS. The client
//! half lives in [`transform_store::remote`]; the two halves are
//! deliberately independent — each parses what the other produces, so a
//! framing bug cannot hide by being symmetric.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body (1 GiB) — far above any real suite.
pub const MAX_BODY: u64 = 1 << 30;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `HEAD`, `PUT`, …
    pub method: String,
    /// The request target, e.g. `/v1/suite/<hex>`.
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed — each maps to one error status.
#[derive(Debug)]
pub enum RequestError {
    /// The connection died or was malformed beyond responding.
    Io(io::Error),
    /// Parse failure worth a `400 Bad Request`.
    Bad(String),
    /// A body-bearing request without `Content-Length` (`411`).
    LengthRequired,
    /// The declared body exceeds [`MAX_BODY`] (`413`).
    TooLarge,
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

/// Reads and parses one request from the stream.
///
/// # Errors
///
/// [`RequestError`] for dead connections, malformed heads, missing or
/// conflicting lengths, and oversized bodies.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, RequestError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        if buf.len() > MAX_HEAD {
            return Err(RequestError::Bad("request head exceeds 16 KiB".into()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Bad(
                "connection closed before the request head completed".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RequestError::Bad("non-UTF-8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Bad("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| RequestError::Bad(format!("malformed request line `{request_line}`")))?
        .to_string();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(RequestError::Bad(format!(
            "not an HTTP/1.x request line: `{request_line}`"
        )));
    }

    let mut content_length: Option<u64> = None;
    for line in lines.filter(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Bad(format!("malformed header `{line}`")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let len = value
                .trim()
                .parse()
                .map_err(|_| RequestError::Bad(format!("malformed Content-Length `{value}`")))?;
            // RFC 9112 §6.3: differing lengths leave the framing
            // undefined, so the request is refused rather than framed by
            // whichever header came last. A repeated equal value is
            // harmless (RFC 9110 §8.6).
            if let Some(earlier) = content_length.filter(|&earlier| earlier != len) {
                return Err(RequestError::Bad(format!(
                    "conflicting Content-Length headers ({earlier} and {len})"
                )));
            }
            content_length = Some(len);
        }
    }

    let mut body = buf[head_end + 4..].to_vec();
    match content_length {
        None => {
            if method == "PUT" || method == "POST" {
                return Err(RequestError::LengthRequired);
            }
            if !body.is_empty() {
                return Err(RequestError::Bad(
                    "body bytes on a request without Content-Length".into(),
                ));
            }
        }
        Some(len) if len > MAX_BODY => return Err(RequestError::TooLarge),
        Some(len) => {
            let len = len as usize;
            if body.len() > len {
                return Err(RequestError::Bad(
                    "more body bytes than Content-Length declared".into(),
                ));
            }
            // Grow with the bytes that actually arrive — a declared
            // Content-Length must not commit an allocation up front, or
            // a stalling client could pin gigabytes per worker.
            let remaining = (len - body.len()) as u64;
            let got = stream.take(remaining).read_to_end(&mut body)?;
            if (got as u64) < remaining {
                return Err(RequestError::Bad(
                    "connection closed before the declared body completed".into(),
                ));
            }
        }
    }
    Ok(Request { method, path, body })
}

/// The reason phrase of the handful of statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes a response head: status line, `Content-Length`,
/// `Connection: close`, and a content type.
///
/// # Errors
///
/// The underlying write failure.
pub fn write_head(
    stream: &mut TcpStream,
    status: u16,
    content_length: u64,
    content_type: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Length: {content_length}\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n",
        reason(status)
    )
}

/// Writes a complete response with an in-memory body.
///
/// # Errors
///
/// The underlying write failure.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    body: &[u8],
    content_type: &str,
) -> io::Result<()> {
    write_head(stream, status, body.len() as u64, content_type)?;
    stream.write_all(body)
}

/// Writes a plain-text response (the error and health paths).
///
/// # Errors
///
/// The underlying write failure.
pub fn respond_text(stream: &mut TcpStream, status: u16, text: &str) -> io::Result<()> {
    respond(stream, status, text.as_bytes(), "text/plain; charset=utf-8")
}
