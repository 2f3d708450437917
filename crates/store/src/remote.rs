//! The HTTP client side of a shared suite cache: a hand-rolled,
//! dependency-free HTTP/1.1 client over [`std::net::TcpStream`] that
//! speaks `transform-serve`'s tiny protocol.
//!
//! | request | meaning |
//! |---|---|
//! | `GET /healthz` | liveness + entry count |
//! | `GET /v1/index` | every readable entry's key, from its header ([`crate::index::encode`] bytes) |
//! | `HEAD /v1/suite/<fingerprint>` | does a sealed entry exist? |
//! | `GET /v1/suite/<fingerprint>` | the sealed entry's bytes |
//! | `PUT /v1/suite/<fingerprint>` | upload a sealed entry (idempotent) |
//! | `GET /v1/runs` | recent run manifests ([`crate::journal::encode_run_list`] bytes) |
//! | `GET /v1/runs/<id>` | one run's full journal ([`crate::journal::encode_run`] bytes) |
//! | `PUT /v1/runs/<id>` | upload a run journal (rewritable — heartbeats) |
//! | `POST /v1/jobs` | create a fleet job ([`crate::fleet::JobSpec`] bytes, idempotent) |
//! | `GET /v1/jobs/<id>` | fleet job progress (JSON) |
//! | `POST /v1/jobs/<id>/cut` | abandon a fleet job |
//! | `POST /v1/lease` | lease a partition range ([`crate::fleet::LeaseGrant`] bytes, 204 = no work) |
//! | `POST /v1/lease/<id>/heartbeat` | renew a lease |
//! | `PUT /v1/shard/<job>/<lo>-<hi>` | upload a shard result (idempotent) |
//!
//! Every payload is already self-validating (sealed suites and every
//! other payload frame carry checksums), so the transport adds no
//! integrity layer of its own: receivers validate what they got, exactly
//! as they would for local files. Requests are one-shot
//! (`Connection: close`) — suite transfers dominate any keep-alive
//! saving, and one connection per request keeps both ends trivial.

use crate::fingerprint::Fingerprint;
use crate::index::IndexEntry;
use crate::journal::RunManifest;
use crate::store::StoreError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest response body the client will buffer (1 GiB) — far above any
/// real suite, low enough that a misbehaving server cannot exhaust
/// memory.
const MAX_BODY: u64 = 1 << 30;

/// The remote half of a tiered suite cache: one `transform serve`
/// endpoint, addressed as `http://host:port`.
#[derive(Clone, Debug)]
pub struct HttpTier {
    host: String,
    port: u16,
    timeout: Duration,
}

impl HttpTier {
    /// Parses `http://host:port` (an optional trailing `/` is allowed).
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the URL is not of that shape.
    pub fn new(url: &str) -> Result<HttpTier, StoreError> {
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| StoreError::Remote(format!("`{url}`: only http:// URLs are served")))?;
        let rest = rest.strip_suffix('/').unwrap_or(rest);
        let bad = || {
            StoreError::Remote(format!(
                "`{url}`: expected http://host:port (no path, no credentials)"
            ))
        };
        let (host, port) = rest.rsplit_once(':').ok_or_else(bad)?;
        if host.is_empty() || host.contains('/') || host.contains('@') {
            return Err(bad());
        }
        let port: u16 = port.parse().map_err(|_| bad())?;
        Ok(HttpTier {
            host: host.to_string(),
            port,
            timeout: Duration::from_secs(30),
        })
    }

    /// Overrides the per-request connect/read/write timeout (default
    /// 30 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> HttpTier {
        self.timeout = timeout;
        self
    }

    /// The endpoint in URL form, `http://host:port`.
    pub fn url(&self) -> String {
        format!("http://{}:{}", self.host, self.port)
    }

    /// One request/response exchange. Returns the status code and body.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Vec<u8>), StoreError> {
        let remote =
            |e: std::io::Error| StoreError::Remote(format!("{method} {}{path}: {e}", self.url()));
        let mut stream = TcpStream::connect((self.host.as_str(), self.port)).map_err(remote)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(remote)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(remote)?;
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}:{}\r\nConnection: close\r\n",
            self.host, self.port
        );
        if let Some(body) = body {
            request.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        request.push_str("\r\n");
        stream.write_all(request.as_bytes()).map_err(remote)?;
        if let Some(body) = body {
            stream.write_all(body).map_err(remote)?;
        }

        let (status, headers, early_body) = read_head(&mut stream)
            .map_err(|e| StoreError::Remote(format!("{method} {}{path}: {e}", self.url())))?;
        let lengths = headers
            .iter()
            .filter(|(name, _)| name == "content-length")
            .map(|(_, value)| value.as_str());
        let declared = content_length(lengths)
            .map_err(|e| StoreError::Remote(format!("{method} {}{path}: {e}", self.url())))?;
        let mut body = early_body;
        if method == "HEAD" {
            return Ok((status, Vec::new()));
        }
        match declared {
            Some(len) if len > MAX_BODY => {
                return Err(StoreError::Remote(format!(
                    "{method} {}{path}: response body of {len} bytes exceeds the {MAX_BODY}-byte cap",
                    self.url()
                )));
            }
            Some(len) => {
                let len = len as usize;
                if body.len() > len {
                    return Err(StoreError::Remote(format!(
                        "{method} {}{path}: more body bytes than Content-Length declared",
                        self.url()
                    )));
                }
                let mut rest = vec![0u8; len - body.len()];
                stream.read_exact(&mut rest).map_err(|e| {
                    StoreError::Remote(format!(
                        "{method} {}{path}: truncated response body: {e}",
                        self.url()
                    ))
                })?;
                body.extend_from_slice(&rest);
            }
            None => {
                // Connection: close and no declared length — read to EOF.
                let mut rest = Vec::new();
                stream
                    .take(MAX_BODY.saturating_sub(body.len() as u64))
                    .read_to_end(&mut rest)
                    .map_err(remote)?;
                body.extend_from_slice(&rest);
            }
        }
        Ok((status, body))
    }

    /// `GET /healthz`: the server's liveness line.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable or unwell.
    pub fn health(&self) -> Result<String, StoreError> {
        let (status, body) = self.exchange("GET", "/healthz", None)?;
        if status != 200 {
            return Err(StoreError::Remote(format!(
                "{}/healthz returned status {status}",
                self.url()
            )));
        }
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// `GET /v1/metrics`: the server's Prometheus text exposition —
    /// what `transform top` polls and renders.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable or unwell.
    pub fn metrics(&self) -> Result<String, StoreError> {
        let (status, body) = self.exchange("GET", "/v1/metrics", None)?;
        if status != 200 {
            return Err(StoreError::Remote(format!(
                "{}/v1/metrics returned status {status}",
                self.url()
            )));
        }
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// `HEAD /v1/suite/<fp>`: whether the remote holds a sealed entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable or answers
    /// with an unexpected status.
    pub fn exists(&self, fp: Fingerprint) -> Result<bool, StoreError> {
        let (status, _) = self.exchange("HEAD", &suite_path(fp), None)?;
        match status {
            200 => Ok(true),
            404 => Ok(false),
            other => Err(StoreError::Remote(format!(
                "HEAD {}{} returned status {other}",
                self.url(),
                suite_path(fp)
            ))),
        }
    }

    /// `GET /v1/index`: the remote store's readable entries with their
    /// keys, checksum-valid — what `store pull` enumerates.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] on transport trouble;
    /// [`StoreError::Corrupt`]/[`StoreError::Version`] when the index
    /// bytes fail validation.
    pub fn index(&self) -> Result<Vec<IndexEntry>, StoreError> {
        let (status, body) = self.exchange("GET", "/v1/index", None)?;
        if status != 200 {
            return Err(StoreError::Remote(format!(
                "{}/v1/index returned status {status}",
                self.url()
            )));
        }
        crate::index::decode(&body)
    }

    /// `GET /v1/suite/<fp>`: the sealed entry's bytes, or `None` when
    /// the remote does not hold it. The bytes are *not yet validated* —
    /// install them through [`crate::Store::install_bytes`], which
    /// refuses anything damaged.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable, truncates
    /// the response, or answers with an unexpected status.
    pub fn fetch(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        let (status, body) = self.exchange("GET", &suite_path(fp), None)?;
        match status {
            200 => Ok(Some(body)),
            404 => Ok(None),
            other => Err(StoreError::Remote(format!(
                "GET {}{} returned status {other}",
                self.url(),
                suite_path(fp)
            ))),
        }
    }

    /// `PUT /v1/suite/<fp>`: uploads a sealed entry. Idempotent — the
    /// server accepts a re-upload of an existing entry without rewriting
    /// it (content addressing makes entries immutable).
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable or rejects
    /// the upload (it validates every byte before publishing).
    pub fn publish(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError> {
        let (status, body) = self.exchange("PUT", &suite_path(fp), Some(bytes))?;
        match status {
            200 | 201 => Ok(()),
            other => Err(StoreError::Remote(format!(
                "PUT {}{} returned status {other}: {}",
                self.url(),
                suite_path(fp),
                String::from_utf8_lossy(&body).trim()
            ))),
        }
    }

    /// `GET /v1/runs`: the remote's recent run manifests,
    /// checksum-valid — what `transform top` merges into its fleet view
    /// and `transform runs list --url` renders.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] on transport trouble;
    /// [`StoreError::Corrupt`]/[`StoreError::Version`] when the list
    /// bytes fail validation.
    pub fn runs(&self) -> Result<Vec<RunManifest>, StoreError> {
        let (status, body) = self.exchange("GET", "/v1/runs", None)?;
        if status != 200 {
            return Err(StoreError::Remote(format!(
                "{}/v1/runs returned status {status}",
                self.url()
            )));
        }
        crate::journal::decode_run_list(&body)
    }

    /// `GET /v1/runs/<id>`: one run's full journal bytes, or `None`
    /// when the remote does not hold it. The bytes are *not yet
    /// validated* — decode them through [`crate::journal::decode_run`]
    /// or install via [`crate::Store::install_run_bytes`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable, truncates
    /// the response, or answers with an unexpected status.
    pub fn fetch_run(&self, id: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let (status, body) = self.exchange("GET", &run_path(id), None)?;
        match status {
            200 => Ok(Some(body)),
            404 => Ok(None),
            other => Err(StoreError::Remote(format!(
                "GET {}{} returned status {other}",
                self.url(),
                run_path(id)
            ))),
        }
    }

    /// `PUT /v1/runs/<id>`: uploads a run journal. Unlike suites, run
    /// journals are rewritable — a live run heartbeats its `Running`
    /// manifest and the final write replaces it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable or rejects
    /// the upload (it validates every byte before publishing).
    pub fn publish_run(&self, id: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let (status, body) = self.exchange("PUT", &run_path(id), Some(bytes))?;
        match status {
            200 | 201 => Ok(()),
            other => Err(StoreError::Remote(format!(
                "PUT {}{} returned status {other}: {}",
                self.url(),
                run_path(id),
                String::from_utf8_lossy(&body).trim()
            ))),
        }
    }

    /// `POST /v1/jobs`: registers a fleet job from its encoded
    /// [`crate::fleet::JobSpec`]. Idempotent — the job id is the hash
    /// of the spec, so re-posting the same work re-joins the existing
    /// job. Returns the job id the coordinator derived.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable or rejects
    /// the spec.
    pub fn create_job(&self, spec_bytes: &[u8]) -> Result<u64, StoreError> {
        let (status, body) = self.exchange("POST", "/v1/jobs", Some(spec_bytes))?;
        match status {
            200 | 201 => {
                let text = String::from_utf8_lossy(&body);
                u64::from_str_radix(text.trim(), 16).map_err(|_| {
                    StoreError::Remote(format!(
                        "POST {}/v1/jobs answered with a malformed job id `{}`",
                        self.url(),
                        text.trim()
                    ))
                })
            }
            other => Err(StoreError::Remote(format!(
                "POST {}/v1/jobs returned status {other}: {}",
                self.url(),
                String::from_utf8_lossy(&body).trim()
            ))),
        }
    }

    /// `GET /v1/jobs/<id>`: the job's progress counters, or `None`
    /// for an unknown job.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] on transport trouble or a malformed
    /// status document.
    pub fn job_status(&self, job: u64) -> Result<Option<JobStatus>, StoreError> {
        let path = format!("/v1/jobs/{job:016x}");
        let (status, body) = self.exchange("GET", &path, None)?;
        match status {
            200 => {
                let text = String::from_utf8_lossy(&body);
                JobStatus::parse(&text).map(Some).ok_or_else(|| {
                    StoreError::Remote(format!(
                        "GET {}{path} answered with a malformed status document",
                        self.url()
                    ))
                })
            }
            404 => Ok(None),
            other => Err(StoreError::Remote(format!(
                "GET {}{path} returned status {other}",
                self.url()
            ))),
        }
    }

    /// `POST /v1/jobs/<id>/cut`: abandons a fleet job — its unleased
    /// and expired ranges stop being handed out, and it will never
    /// seal. Safe on an already-cut or unknown job.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable.
    pub fn cut_job(&self, job: u64) -> Result<(), StoreError> {
        let path = format!("/v1/jobs/{job:016x}/cut");
        // An explicit empty body: the server requires Content-Length on
        // every POST, and `None` would omit the header entirely.
        let (status, body) = self.exchange("POST", &path, Some(b""))?;
        match status {
            200 | 404 => Ok(()),
            other => Err(StoreError::Remote(format!(
                "POST {}{path} returned status {other}: {}",
                self.url(),
                String::from_utf8_lossy(&body).trim()
            ))),
        }
    }

    /// `POST /v1/lease`: asks the coordinator for work. `Some(grant)`
    /// carries a leased range plus the full job spec; `None` means no
    /// work is available right now (poll again later). `worker` is a
    /// display name for the coordinator's bookkeeping.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] on transport trouble;
    /// [`StoreError::Corrupt`] when the grant bytes fail validation.
    pub fn lease(&self, worker: &str) -> Result<Option<crate::fleet::LeaseGrant>, StoreError> {
        let (status, body) = self.exchange("POST", "/v1/lease", Some(worker.as_bytes()))?;
        match status {
            200 => crate::fleet::LeaseGrant::decode(&body)
                .map(Some)
                .map_err(|e| StoreError::Corrupt(format!("lease grant: {e}"))),
            204 => Ok(None),
            other => Err(StoreError::Remote(format!(
                "POST {}/v1/lease returned status {other}",
                self.url()
            ))),
        }
    }

    /// `POST /v1/lease/<id>/heartbeat`: renews a lease. `false` means
    /// the coordinator no longer honors it (expired and reassigned, or
    /// the job was cut) — the worker should abandon the range.
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable.
    pub fn heartbeat(&self, lease: u64) -> Result<bool, StoreError> {
        let path = format!("/v1/lease/{lease:016x}/heartbeat");
        // Explicit empty body — POST without Content-Length is a 411.
        let (status, _) = self.exchange("POST", &path, Some(b""))?;
        match status {
            200 => Ok(true),
            404 | 410 => Ok(false),
            other => Err(StoreError::Remote(format!(
                "POST {}{path} returned status {other}",
                self.url()
            ))),
        }
    }

    /// `PUT /v1/shard/<job>/<lo>-<hi>`: uploads one encoded
    /// [`crate::fleet::ShardResult`]. Idempotent — a retried upload of
    /// the identical bytes is accepted as a duplicate; a conflicting
    /// upload is rejected with [`crate::fleet::StageOutcome::Mismatch`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Remote`] when the server is unreachable or rejects
    /// the bytes outright (damage, unknown job).
    pub fn put_shard(
        &self,
        job: u64,
        lo: u32,
        hi: u32,
        bytes: &[u8],
    ) -> Result<crate::fleet::StageOutcome, StoreError> {
        let path = format!("/v1/shard/{job:016x}/{lo}-{hi}");
        let (status, body) = self.exchange("PUT", &path, Some(bytes))?;
        match status {
            201 => Ok(crate::fleet::StageOutcome::New),
            200 => Ok(crate::fleet::StageOutcome::Duplicate),
            409 => Ok(crate::fleet::StageOutcome::Mismatch),
            other => Err(StoreError::Remote(format!(
                "PUT {}{path} returned status {other}: {}",
                self.url(),
                String::from_utf8_lossy(&body).trim()
            ))),
        }
    }
}

/// One fleet job's progress as reported by `GET /v1/jobs/<id>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobStatus {
    /// Ranges in the job's plan.
    pub ranges: usize,
    /// Ranges with a staged shard result.
    pub staged: usize,
    /// Ranges currently out on a live lease.
    pub leased: usize,
    /// Whether every range is staged and the suites are sealed.
    pub complete: bool,
    /// Whether the job was cut (abandoned; will never seal).
    pub cut: bool,
}

impl JobStatus {
    /// Extracts the status from the coordinator's JSON document. The
    /// fields are flat `"name":value` pairs, so a scan is enough — no
    /// JSON parser needed on this dependency-free path.
    pub fn parse(text: &str) -> Option<JobStatus> {
        fn field_usize(text: &str, name: &str) -> Option<usize> {
            let at = text.find(&format!("\"{name}\":"))? + name.len() + 3;
            let rest = &text[at..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }
        fn field_bool(text: &str, name: &str) -> Option<bool> {
            let at = text.find(&format!("\"{name}\":"))? + name.len() + 3;
            let rest = &text[at..];
            if rest.starts_with("true") {
                Some(true)
            } else if rest.starts_with("false") {
                Some(false)
            } else {
                None
            }
        }
        Some(JobStatus {
            ranges: field_usize(text, "ranges")?,
            staged: field_usize(text, "staged")?,
            leased: field_usize(text, "leased")?,
            complete: field_bool(text, "complete")?,
            cut: field_bool(text, "cut")?,
        })
    }
}

/// The wire path of one sealed entry.
fn suite_path(fp: Fingerprint) -> String {
    format!("/v1/suite/{}", fp.hex())
}

/// The wire path of one run journal.
fn run_path(id: u64) -> String {
    format!("/v1/runs/{id:016x}")
}

/// A parsed response head: status code, lowercased headers, and any
/// body bytes that arrived in the same reads.
type ResponseHead = (u16, Vec<(String, String)>, Vec<u8>);

/// Reads the status line and headers (everything up to the blank line),
/// returning any body bytes that arrived in the same reads.
fn read_head(stream: &mut TcpStream) -> Result<ResponseHead, String> {
    // Headers comfortably fit 16 KiB; a server that sends more is not ours.
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(at) = find_blank_line(&buf) {
            break at;
        }
        if buf.len() > 16 * 1024 {
            return Err("response headers exceed 16 KiB".into());
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed before response headers completed".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response headers")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status = parse_status_line(status_line)?;
    let headers = lines
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (name, value) = l.split_once(':').ok_or(format!("malformed header `{l}`"))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((status, headers, buf[head_end + 4..].to_vec()))
}

/// Byte offset of the `\r\n\r\n` separating headers from body.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `HTTP/1.1 200 OK` → `200`.
fn parse_status_line(line: &str) -> Result<u16, String> {
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("not an HTTP/1.x response: `{line}`"));
    }
    parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(format!("malformed status line `{line}`"))
}

/// The body length a message declares, from the values of its
/// `Content-Length` headers in the order they came (`None` without
/// one). Both halves of the protocol frame with this rule: the client
/// here, and `transform-serve`'s request parser.
///
/// A value is 1*DIGIT (RFC 9110 §8.6), so a sign, which
/// `u64::from_str` would accept, is malformed. Differing values leave
/// the framing undefined (RFC 9112 §6.3), so they are refused rather
/// than settled by whichever header came first; a repeated equal value
/// is harmless.
///
/// # Errors
///
/// A message naming the malformed value or the conflicting pair.
pub fn content_length<'v>(
    values: impl IntoIterator<Item = &'v str>,
) -> Result<Option<u64>, String> {
    let mut declared: Option<u64> = None;
    for value in values {
        let digits = value.trim();
        let malformed = || format!("malformed Content-Length `{digits}`");
        if !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(malformed());
        }
        let len: u64 = digits.parse().map_err(|_| malformed())?;
        if let Some(earlier) = declared.filter(|&earlier| earlier != len) {
            return Err(format!(
                "conflicting Content-Length headers ({earlier} and {len})"
            ));
        }
        declared = Some(len);
    }
    Ok(declared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_accepts_host_port_only() {
        let t = HttpTier::new("http://127.0.0.1:7171").expect("parses");
        assert_eq!(t.url(), "http://127.0.0.1:7171");
        let t = HttpTier::new("http://cache.internal:80/").expect("parses");
        assert_eq!(t.url(), "http://cache.internal:80");
        for bad in [
            "https://127.0.0.1:7171",
            "127.0.0.1:7171",
            "http://127.0.0.1",
            "http://127.0.0.1:notaport",
            "http://:7171",
            "http://user@host:7171",
            "http://host:7171/path",
        ] {
            assert!(HttpTier::new(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn status_lines_and_lengths_parse() {
        assert_eq!(parse_status_line("HTTP/1.1 200 OK").unwrap(), 200);
        assert_eq!(parse_status_line("HTTP/1.0 404 Not Found").unwrap(), 404);
        assert!(parse_status_line("ICY 200 OK").is_err());
        assert!(parse_status_line("HTTP/1.1").is_err());
        assert_eq!(content_length(["42"]).unwrap(), Some(42));
        assert_eq!(content_length([]).unwrap(), None);
        // A repeated equal value frames the body unambiguously.
        assert_eq!(content_length(["5", " 5 "]).unwrap(), Some(5));
        // Only 1*DIGIT is a length, and two different lengths are no
        // length at all, in either order.
        for bad in [
            &["many"][..],
            &["+5"],
            &["+0"],
            &["-0"],
            &[""],
            &["5", "6"],
            &["6", "5"],
            &["5", "5", "6"],
        ] {
            assert!(content_length(bad.iter().copied()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unreachable_hosts_are_remote_errors() {
        // Port 1 on localhost: reliably refused, never listened on.
        let t = HttpTier::new("http://127.0.0.1:1")
            .expect("parses")
            .with_timeout(Duration::from_millis(200));
        match t.health() {
            Err(StoreError::Remote(_)) => {}
            other => panic!("expected a remote error, got {other:?}"),
        }
    }
}
