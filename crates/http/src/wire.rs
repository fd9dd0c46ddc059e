//! HTTP/1.1 message framing (paper Table 1: HTTP is an application-level
//! Mirage library).
//!
//! An incremental parser suited to the stream interface: feed it chunks as
//! they arrive from TCP, and it yields complete messages once the header
//! block and `Content-Length` body are in. Pipelined requests on one
//! connection parse back-to-back.
//!
//! The parsers buffer [`PktBuf`] views rather than flat bytes, so feeding a
//! chunk that arrived from the stack is a reference-count bump, not a copy.
//! The only counted payload copy on the receive path is the final gather of
//! the message body out of the buffered views.

use mirage_net::{record_copy, PktBuf};
use std::collections::VecDeque;

/// Request methods the appliances use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
    /// HEAD.
    Head,
    /// Anything else (rejected by the server with 501).
    Other,
}

impl Method {
    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "HEAD" => Method::Head,
            _ => Method::Other,
        }
    }

    /// Canonical token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Other => "OTHER",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path (with query string attached).
    pub path: String,
    /// Header pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the connection should stay open afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Splits the path into (path, query).
    pub fn split_query(&self) -> (&str, Option<&str>) {
        match self.path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (self.path.as_str(), None),
        }
    }

    /// Serialises the request (client side).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method.as_str(), self.path).into_bytes();
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        if !self.body.is_empty() && self.header("content-length").is_none() {
            out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        }
        if !self.keep_alive {
            out.extend_from_slice(b"connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Convenience GET constructor.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    /// Convenience POST constructor.
    pub fn post(path: impl Into<String>, body: Vec<u8>) -> Request {
        Request {
            method: Method::Post,
            path: path.into(),
            headers: Vec::new(),
            body,
            keep_alive: true,
        }
    }
}

/// A response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header pairs (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a body and content type.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            headers: vec![("content-type".into(), content_type.into())],
            body,
        }
    }

    /// An empty response with a status code.
    pub fn status(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Reason phrase for a code.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            _ => "Unknown",
        }
    }

    /// First header value by name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serialises the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            Response::reason(self.status)
        )
        .into_bytes();
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Errors from message parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line or a header was malformed.
    Malformed,
    /// Headers or the claimed body length exceed the sanity bounds.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            HttpError::Malformed => "malformed http message",
            HttpError::TooLarge => "message exceeds sanity bounds",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HttpError {}

/// Header-block sanity bound.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Body-length sanity bound. A Content-Length above this is a length-field
/// lie, not a message the parser should sit buffering toward forever.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Validates a claimed Content-Length before any buffering decision rides
/// on it: unparseable values are malformed, absurd ones are rejected.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let Some((_, v)) = headers.iter().find(|(n, _)| n == "content-length") else {
        return Ok(0);
    };
    let n: usize = v.parse().map_err(|_| HttpError::Malformed)?;
    if n > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(n)
}

/// Received bytes held as a queue of [`PktBuf`] views. Feeding never copies
/// payload; the views stay shared with the stack's receive buffers until a
/// complete message is gathered out.
#[derive(Debug, Default)]
struct ChunkBuf {
    chunks: VecDeque<PktBuf>,
    len: usize,
}

impl ChunkBuf {
    fn push(&mut self, data: PktBuf) {
        if !data.is_empty() {
            self.len += data.len();
            self.chunks.push_back(data);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Offset of the first `\r\n\r\n`, scanned with a rolling window so the
    /// delimiter is found even when it straddles chunk boundaries.
    fn find_blank_line(&self) -> Option<usize> {
        let mut window = [0u8; 4];
        let mut seen = 0usize;
        for chunk in &self.chunks {
            for &b in chunk.as_slice() {
                window.rotate_left(1);
                window[3] = b;
                seen += 1;
                if seen >= 4 && window == *b"\r\n\r\n" {
                    return Some(seen - 4);
                }
            }
        }
        None
    }

    /// Copies `len` bytes starting at `start` into a fresh vector. Whether
    /// this counts against the copy counters is the caller's call: header
    /// blocks are protocol metadata, bodies are payload.
    fn gather(&self, start: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut skip = start;
        for chunk in &self.chunks {
            if out.len() == len {
                break;
            }
            let s = chunk.as_slice();
            if skip >= s.len() {
                skip -= s.len();
                continue;
            }
            let take = (s.len() - skip).min(len - out.len());
            out.extend_from_slice(&s[skip..skip + take]);
            skip = 0;
        }
        out
    }

    /// Drops `n` bytes from the front, splitting the view at the boundary.
    fn consume(&mut self, mut n: usize) {
        self.len -= n;
        while n > 0 {
            let Some(front) = self.chunks.front_mut() else {
                break;
            };
            if front.len() <= n {
                n -= front.len();
                self.chunks.pop_front();
            } else {
                let _ = front.split_to(n);
                n = 0;
            }
        }
    }
}

/// An incremental request parser: feed bytes, take complete requests.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: ChunkBuf,
}

impl RequestParser {
    /// A fresh parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends newly received bytes. Feeding an owned [`PktBuf`] (as the
    /// server and client do with stream chunks) is copy-free.
    pub fn feed(&mut self, data: impl Into<PktBuf>) {
        self.buf.push(data.into());
    }

    /// Attempts to take one complete request off the buffer.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input; the connection should be closed.
    pub fn take(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(header_end) = self.buf.find_blank_line() else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(HttpError::TooLarge);
            }
            return Ok(None);
        };
        // Assembling the header block for parsing is not a counted copy:
        // headers are protocol metadata, not delivered payload.
        let head = self.buf.gather(0, header_end);
        let header_text = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed)?;
        let mut lines = header_text.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::Malformed)?;
        let mut parts = request_line.split_whitespace();
        let method = Method::parse(parts.next().ok_or(HttpError::Malformed)?);
        let path = parts.next().ok_or(HttpError::Malformed)?.to_owned();
        let version = parts.next().ok_or(HttpError::Malformed)?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed);
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(HttpError::Malformed)?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let content_length = content_length(&headers)?;
        let body_start = header_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(None); // body still arriving
        }
        // The single counted copy on the receive path: the body leaves the
        // shared views and becomes the application's owned bytes.
        let body = self.buf.gather(body_start, content_length);
        if !body.is_empty() {
            record_copy(body.len());
        }
        self.buf.consume(body_start + content_length);
        let keep_alive = !headers
            .iter()
            .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
        Ok(Some(Request {
            method,
            path,
            headers,
            body,
            keep_alive,
        }))
    }
}

/// An incremental response parser (client side).
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: ChunkBuf,
}

impl ResponseParser {
    /// A fresh parser.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Appends newly received bytes (copy-free for owned [`PktBuf`] chunks).
    pub fn feed(&mut self, data: impl Into<PktBuf>) {
        self.buf.push(data.into());
    }

    /// Attempts to take one complete response off the buffer.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input.
    pub fn take(&mut self) -> Result<Option<Response>, HttpError> {
        let Some(header_end) = self.buf.find_blank_line() else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(HttpError::TooLarge);
            }
            return Ok(None);
        };
        let head = self.buf.gather(0, header_end);
        let header_text = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed)?;
        let mut lines = header_text.split("\r\n");
        let status_line = lines.next().ok_or(HttpError::Malformed)?;
        let mut parts = status_line.split_whitespace();
        let version = parts.next().ok_or(HttpError::Malformed)?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed);
        }
        let status: u16 = parts
            .next()
            .ok_or(HttpError::Malformed)?
            .parse()
            .map_err(|_| HttpError::Malformed)?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(HttpError::Malformed)?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let content_length = content_length(&headers)?;
        let body_start = header_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(None);
        }
        let body = self.buf.gather(body_start, content_length);
        if !body.is_empty() {
            record_copy(body.len());
        }
        self.buf.consume(body_start + content_length);
        Ok(Some(Response {
            status,
            headers,
            body,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn request_round_trip() {
        let req = Request::post("/tweet?user=7", b"hello world".to_vec());
        let wire = req.encode();
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        let parsed = parser.take().unwrap().unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.path, "/tweet?user=7");
        assert_eq!(parsed.body, b"hello world");
        assert_eq!(parsed.split_query(), ("/tweet", Some("user=7")));
        assert!(parsed.keep_alive);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok("text/html", b"<h1>hi</h1>".to_vec());
        let wire = resp.encode();
        let mut parser = ResponseParser::new();
        parser.feed(&wire);
        let parsed = parser.take().unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, b"<h1>hi</h1>");
        assert_eq!(parsed.header("content-type"), Some("text/html"));
    }

    #[test]
    fn incremental_feeding_waits_for_completion() {
        let req = Request::post("/x", vec![b'z'; 100]);
        let wire = req.encode();
        let mut parser = RequestParser::new();
        for chunk in wire.chunks(7) {
            if let Some(done) = parser.take().unwrap() {
                panic!("parsed early: {done:?}");
            }
            parser.feed(chunk);
        }
        let parsed = parser.take().unwrap().unwrap();
        assert_eq!(parsed.body.len(), 100);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut wire = Request::get("/a").encode();
        wire.extend(Request::get("/b").encode());
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        assert_eq!(parser.take().unwrap().unwrap().path, "/a");
        assert_eq!(parser.take().unwrap().unwrap().path, "/b");
        assert!(parser.take().unwrap().is_none());
    }

    #[test]
    fn connection_close_header_honoured() {
        let mut req = Request::get("/");
        req.keep_alive = false;
        let wire = req.encode();
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        assert!(!parser.take().unwrap().unwrap().keep_alive);
    }

    #[test]
    fn malformed_inputs_rejected() {
        let mut parser = RequestParser::new();
        parser.feed(b"NONSENSE\r\n\r\n");
        assert_eq!(parser.take(), Err(HttpError::Malformed));
        let mut p2 = RequestParser::new();
        p2.feed(b"GET / SPDY/9\r\n\r\n");
        assert_eq!(p2.take(), Err(HttpError::Malformed));
        let mut p3 = RequestParser::new();
        p3.feed(vec![b'x'; MAX_HEADER_BYTES + 1]);
        assert_eq!(p3.take(), Err(HttpError::TooLarge));
    }

    mirage_testkit::property! {
        /// Any request round-trips through encode/parse, chunked arbitrarily.
        fn prop_request_round_trip(path in mirage_testkit::prop::path(0..25),
                                   body in collection::vec(any::<u8>(), 0..512),
                                   chunk in 1usize..64) {
            let req = Request::post(path.clone(), body.clone());
            let wire = req.encode();
            let mut parser = RequestParser::new();
            let mut result = None;
            for piece in wire.chunks(chunk) {
                parser.feed(piece);
            }
            if let Some(r) = parser.take().unwrap() {
                result = Some(r);
            }
            let parsed = result.expect("complete after full feed");
            assert_eq!(parsed.path, path);
            assert_eq!(parsed.body, body);
        }
    }
}
