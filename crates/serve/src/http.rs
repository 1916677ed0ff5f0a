//! A minimal HTTP/1.1 subset: exactly what the serving layer needs.
//!
//! No chunked transfer, no TLS; keep-alive is opt-in per response via
//! [`Response::serialize`]'s flag. Requests are capped at 16 KiB of
//! head (request line + headers) and 1 MiB of body; both caps turn
//! attackers' oversized payloads into cheap early rejections.
//!
//! One parser, [`try_parse`], consumes zero or more complete requests
//! from a byte buffer — the nonblocking reactor's pipelining path,
//! where a single read may carry several back-to-back requests. When
//! that path finds an `Expect: 100-continue` head whose body has not
//! arrived, the connection answers `100 Continue` before the request's
//! response.

use std::io::Write;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum bytes of request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// The path component (query strings are kept verbatim).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lowercase), if any.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line, header, or length field.
    Bad(String),
    /// Head or body exceeded its cap.
    TooLarge,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Bad(m) => write!(f, "bad request: {m}"),
            ParseError::TooLarge => write!(f, "request too large"),
        }
    }
}

/// Method, path, and lowercased headers from one request head.
type ParsedHead = (String, String, Vec<(String, String)>);

/// Parses the request line plus headers, already split on the blank
/// line.
fn parse_head(head: &str) -> Result<ParsedHead, ParseError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Bad(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), path.to_string(), headers))
}

/// Extracts and validates the `Content-Length` of a parsed header set.
fn content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }
    Ok(length)
}

/// Attempts to parse one complete request from the front of `buf`
/// without consuming it; returns the request plus the number of bytes
/// it occupied, or `None` when the buffer holds only a prefix so far.
///
/// Calling this in a loop (advancing by the consumed count each time)
/// is how the reactor supports HTTP/1.1 pipelining: every complete
/// request sitting in the read buffer is surfaced before the next
/// socket read.
///
/// # Errors
///
/// [`ParseError::Bad`] for malformed syntax, [`ParseError::TooLarge`]
/// once the buffered head or the declared body exceeds its cap (a
/// partial head longer than [`MAX_HEAD_BYTES`] fails immediately —
/// waiting for more bytes cannot fix it).
pub fn try_parse(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge);
        }
        return Ok(None);
    };
    if head_end + 4 > MAX_HEAD_BYTES {
        return Err(ParseError::TooLarge);
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let (method, path, headers) = parse_head(&head)?;
    let length = content_length(&headers)?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    Ok(Some((
        Request {
            method,
            path,
            headers,
            body,
        },
        total,
    )))
}

/// The interim response an HTTP/1.1 client that sent
/// `Expect: 100-continue` waits for before it sends its body.
pub(crate) const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Whether `buf` starts with a complete HTTP/1.1 request head that asks
/// for `Expect: 100-continue` but not yet the whole body it declares:
/// the client is waiting for [`CONTINUE`]. [`try_parse`] answers
/// `None` for such a buffer; call this only then, so a request that
/// arrives whole pays nothing.
pub(crate) fn awaits_continue(buf: &[u8]) -> bool {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let Ok((_, _, headers)) = parse_head(&head) else {
        return false;
    };
    let http11 = head
        .split("\r\n")
        .next()
        .is_some_and(|line| line.ends_with(" HTTP/1.1"));
    let expects = headers
        .iter()
        .any(|(n, v)| n == "expect" && v.eq_ignore_ascii_case("100-continue"));
    http11
        && expects
        && content_length(&headers).is_ok_and(|length| buf.len() < head_end + 4 + length)
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Extra headers beyond the defaults (`Content-Type`,
    /// `Content-Length`, `Connection: close`).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

/// The standard reason phrase for the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error response `{"error": message}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::to_string(&serde::Value::Object(vec![(
            "error".to_string(),
            serde::Value::String(message.to_string()),
        )]))
        .expect("a Value always serializes");
        Response::json(status, body)
    }

    /// Adds a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The full wire form of the response as bytes (used by the server
    /// so chaos truncation can cut a serialized response mid-body),
    /// written into one buffer sized for it up front.
    #[must_use]
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        /// The head's fixed text, plus the most digits a `u16` status
        /// and a `usize` length can take.
        const FIXED: usize = "HTTP/1.1  \r\nContent-Type: application/json\r\n\
            Content-Length: \r\nConnection: \r\n\r\n"
            .len()
            + 5
            + 20;
        let reason = reason(self.status);
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let headers: usize = self
            .headers
            .iter()
            .map(|(n, v)| n.len() + v.len() + 4)
            .sum();
        let mut out =
            Vec::with_capacity(FIXED + reason.len() + connection.len() + headers + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {reason}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: {connection}\r\n",
            self.status,
            self.body.len()
        )
        .expect("writing to a Vec cannot fail");
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// The serializer [`Response::serialize`] replaced, one `format!` per
/// line, kept as the reference its bytes are checked against.
#[cfg(test)]
fn serialize_by_format(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut text = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason(response.status)
    );
    text.push_str("Content-Type: application/json\r\n");
    text.push_str(&format!("Content-Length: {}\r\n", response.body.len()));
    if keep_alive {
        text.push_str("Connection: keep-alive\r\n");
    } else {
        text.push_str("Connection: close\r\n");
    }
    for (name, value) in &response.headers {
        text.push_str(&format!("{name}: {value}\r\n"));
    }
    text.push_str("\r\n");
    text.push_str(&response.body);
    text.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request at the front of `text`, which holds one whole.
    fn parse(text: &str) -> Result<Request, ParseError> {
        try_parse(text.as_bytes()).map(|parsed| parsed.expect("a whole request").0)
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/solve HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n{\"solver\":\"x\"}",
        );
        // 13 bytes of a 14-byte body: the request takes exactly 13.
        let req = req.unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body.len(), 13);
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse("GET / HTTP/1.1\r\nX-Thing: 7\r\n\r\n").unwrap();
        assert_eq!(req.header("x-thing"), Some("7"));
        assert_eq!(req.header("X-Thing"), None, "lookup uses lowercase");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(parse("NONSENSE\r\n\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: lots\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_and_heads() {
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&big), Err(ParseError::TooLarge)));
        let huge_head = format!(
            "GET / HTTP/1.1\r\nX: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge_head), Err(ParseError::TooLarge)));
    }

    #[test]
    fn try_parse_consumes_pipelined_requests_one_at_a_time() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/solve HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /statusz HTTP/1.1\r\n\r\n";
        let mut buf = wire.to_vec();
        let mut paths = Vec::new();
        while let Some((req, used)) = try_parse(&buf).unwrap() {
            paths.push(req.path.clone());
            buf.drain(..used);
        }
        assert_eq!(paths, ["/healthz", "/v1/solve", "/statusz"]);
        assert!(buf.is_empty());
    }

    #[test]
    fn try_parse_waits_for_incomplete_heads_and_bodies() {
        assert!(try_parse(b"GET /health").unwrap().is_none());
        assert!(try_parse(b"").unwrap().is_none());
        // Head complete, declared body still in flight.
        let partial = b"POST /v1/solve HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"a\"";
        assert!(try_parse(partial).unwrap().is_none());
        // Once the body arrives the request parses whole.
        let full = b"POST /v1/solve HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"a\":1234}";
        let (req, used) = try_parse(full).unwrap().unwrap();
        assert_eq!(req.body_text(), "{\"a\":1234}");
        assert_eq!(used, full.len());
    }

    #[test]
    fn only_a_waiting_http11_expect_head_awaits_continue() {
        let head = "POST /v1/solve HTTP/1.1\r\nExpect: 100-Continue\r\nContent-Length: 4\r\n\r\n";
        assert!(awaits_continue(head.as_bytes()));
        assert!(
            awaits_continue(format!("{head}{{}}").as_bytes()),
            "half the body"
        );
        assert!(
            !awaits_continue(format!("{head}{{\"\"}}").as_bytes()),
            "whole"
        );
        assert!(
            !awaits_continue(&head.as_bytes()[..head.len() - 2]),
            "head cut"
        );
        for other in [
            head.replace("HTTP/1.1", "HTTP/1.0"),
            head.replace("100-Continue", "200-ok"),
            head.replace("Expect", "X-Expect"),
            head.replace("Content-Length: 4", "Content-Length: 0"),
            head.replace("Content-Length: 4", "Content-Length: x"),
        ] {
            assert!(!awaits_continue(other.as_bytes()), "{other:?}");
        }
    }

    #[test]
    fn try_parse_rejects_bad_syntax_and_oversize() {
        assert!(matches!(
            try_parse(b"NONSENSE\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            try_parse(b"GET / SPDY/3\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        let huge_head = format!("GET / HTTP/1.1\r\nX: {}", "y".repeat(MAX_HEAD_BYTES));
        assert!(matches!(
            try_parse(huge_head.as_bytes()),
            Err(ParseError::TooLarge)
        ));
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            try_parse(big_body.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn response_serializes_with_default_headers() {
        let out = Response::json(200, "{\"ok\":true}")
            .header("Retry-After", "1")
            .serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_response_is_json() {
        let resp = Response::error(400, "bad things");
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"error\""));
        assert!(resp.body.contains("bad things"));
    }

    #[test]
    fn reason_phrases_cover_served_codes() {
        for code in [
            200, 201, 202, 400, 401, 403, 404, 405, 413, 429, 500, 503, 504,
        ] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
        assert_eq!(reason(418), "Unknown");
    }

    #[test]
    fn keep_alive_flips_only_the_connection_header() {
        let resp = Response::json(200, "{}");
        let close = resp.serialize(false);
        let keep = resp.serialize(true);
        let close = String::from_utf8(close).unwrap();
        let keep = String::from_utf8(keep).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert_eq!(
            close.replace("Connection: close", "Connection: keep-alive"),
            keep
        );
    }

    /// Random responses serialize to the reference's bytes, and into a
    /// buffer that never grows: every served status and some others,
    /// zero to five headers, and texts mixing ASCII with two-, three-
    /// and four-byte UTF-8.
    #[test]
    fn serialize_matches_the_format_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2201);
        let text = |rng: &mut SmallRng, max: usize| -> String {
            let ranges = [0x20..0x7f, 0xa0..0x800, 0x800..0xd800, 0x1_0000..0x1_1000];
            (0..rng.random_range(0..=max))
                .map(|_| {
                    let range = ranges[rng.random_range(0..ranges.len())].clone();
                    char::from_u32(rng.random_range(range)).expect("no surrogates drawn")
                })
                .collect()
        };
        let statuses = [
            200, 201, 202, 400, 401, 403, 404, 405, 413, 429, 500, 503, 504,
        ];
        for case in 0..3000 {
            let status = if rng.random::<bool>() {
                statuses[rng.random_range(0..statuses.len())]
            } else {
                rng.random::<u16>()
            };
            let headers = (0..rng.random_range(0..=5))
                .map(|_| (text(&mut rng, 16), text(&mut rng, 40)))
                .collect();
            let body = text(&mut rng, 300);
            let response = Response {
                status,
                headers,
                body,
            };
            for keep_alive in [false, true] {
                let wire = response.serialize(keep_alive);
                assert_eq!(
                    wire,
                    serialize_by_format(&response, keep_alive),
                    "case {case}: {response:?}"
                );
                assert!(
                    wire.capacity() <= wire.len() + 25,
                    "case {case}: sized up front"
                );
            }
        }
    }

    #[test]
    fn round_trips_through_the_wire_format() {
        let out = Response::json(503, "{}")
            .header("Retry-After", "1")
            .serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable"));
    }
}
