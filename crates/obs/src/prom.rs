//! Zero-dependency Prometheus text exposition.
//!
//! [`encode_prometheus`] renders a [`MetricsSnapshot`] in the Prometheus
//! text format (version 0.0.4): dotted registry names are mangled to
//! underscores, counters gain the conventional `_total` suffix, labeled
//! registry keys (`base{phase="replay"}`, see [`MetricName`]) are split back
//! into real exposition labels, and histograms expose cumulative
//! `_bucket{le="…"}` series derived from [`Histogram`](crate::Histogram)
//! bucket counts plus `_sum` / `_count`. Bucket bounds are in
//! nanoseconds, matching the `_ns` suffix the registry names carry.
//!
//! [`TelemetryServer`] serves that encoding over a plain
//! `std::net::TcpListener` — `GET /metrics` for the exposition (after the
//! owner's probe hook refreshed its gauges), `GET /health` for an
//! engine-supplied JSON health view. One accept-loop
//! thread, blocking I/O, `Connection: close` per request: exactly enough
//! HTTP for `curl` and a Prometheus scraper, with no dependencies the
//! container doesn't already have.

use crate::alloc::AllocMetrics;
use crate::name::MetricName;
use crate::{Histogram, MetricsRegistry, MetricsSnapshot};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Mangle a registry key that failed [`MetricName::parse`] into something
/// exposition-legal (best effort, no labels recovered).
fn sanitize(key: &str) -> String {
    let mut out: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        out.insert(0, '_');
    }
    out
}

/// `(exposition_base, rendered_label_block)` for a registry key;
/// label block is `""` or `{k="v",...}`.
fn split_key(key: &str) -> (String, String) {
    match MetricName::parse(key) {
        Ok(name) => {
            let labels = name.labels();
            let block = if labels.is_empty() {
                String::new()
            } else {
                let rendered: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                    .collect();
                format!("{{{}}}", rendered.join(","))
            };
            (name.prometheus_base(), block)
        }
        Err(_) => (sanitize(key), String::new()),
    }
}

/// Append a `# TYPE` header the first time `base` appears.
fn type_header(out: &mut String, last: &mut String, base: &str, kind: &str) {
    if last != base {
        let _ = writeln!(out, "# TYPE {base} {kind}");
        *last = base.to_owned();
    }
}

/// Render `snapshot` in the Prometheus text exposition format 0.0.4.
///
/// Counters are suffixed `_total`; histogram `le` bounds are inclusive
/// upper bounds in nanoseconds (our exclusive bucket bounds are a
/// half-open refinement of the same partition, the standard
/// approximation). Registry keys sharing a base (a labeled family) emit
/// one `# TYPE` header.
pub fn encode_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for (key, value) in &snapshot.counters {
        let (base, labels) = split_key(key);
        let base = format!("{base}_total");
        type_header(&mut out, &mut last, &base, "counter");
        let _ = writeln!(out, "{base}{labels} {value}");
    }
    for (key, value) in &snapshot.gauges {
        let (base, labels) = split_key(key);
        type_header(&mut out, &mut last, &base, "gauge");
        let _ = writeln!(out, "{base}{labels} {value}");
    }
    for (key, hist) in &snapshot.histograms {
        let (base, labels) = split_key(key);
        type_header(&mut out, &mut last, &base, "histogram");
        // `labels` is `""` or `{k="v"}`; splice `le` into the block.
        let le_prefix = if labels.is_empty() {
            "{".to_owned()
        } else {
            format!("{},", &labels[..labels.len() - 1])
        };
        let mut cumulative = 0u64;
        for (i, count) in hist.buckets.iter().enumerate() {
            cumulative += count;
            match Histogram::bucket_bound(i) {
                Some(bound) => {
                    let _ = writeln!(out, "{base}_bucket{le_prefix}le=\"{bound}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{base}_bucket{le_prefix}le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(out, "{base}_sum{labels} {}", hist.sum_ns);
        let _ = writeln!(out, "{base}_count{labels} {}", hist.count);
    }
    out
}

// ---------------------------------------------------------------------------
// HTTP endpoint
// ---------------------------------------------------------------------------

/// Health callback: returns the JSON body served at `/health`.
pub type HealthFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Probe callback: refreshes the gauges that mirror live state, run
/// before every `/metrics` scrape reads the registry.
pub type ProbeFn = Arc<dyn Fn() + Send + Sync>;

/// Minimal HTTP endpoint serving `GET /metrics` (Prometheus text) and
/// `GET /health` (engine-supplied JSON). Bind with port 0 to let the OS
/// pick; [`TelemetryServer::local_addr`] reports the result. Dropping
/// the server stops the accept loop and joins its thread.
pub struct TelemetryServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` and start the accept-loop thread
    /// (`polaris-telemetry`).
    pub fn start(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        probe: ProbeFn,
        health: HealthFn,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        // Registered up front so every scrape can sync the allocator /
        // RSS attribution counters into the registry first — `/metrics`
        // then always exposes fresh `alloc_bytes_total{phase=...}` and
        // `process_resident_bytes`, even without a harvester ticking.
        let alloc_metrics = AllocMetrics::register(&registry);
        let handle = std::thread::Builder::new()
            .name("polaris-telemetry".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Serve inline: requests are tiny and the responses are
                    // rendered from atomics, so one connection at a time is
                    // plenty for a scraper + the occasional curl.
                    let _ = serve_one(stream, &registry, &alloc_metrics, &probe, &health);
                }
            })?;
        Ok(TelemetryServer {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the thread (idempotent).
    pub fn stop(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(handle) = self.handle.take() {
            crate::join_unless_current(handle);
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

/// Read one request off `stream`, write one response, close.
fn serve_one(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    alloc_metrics: &AllocMetrics,
    probe: &ProbeFn,
    health: &HealthFn,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => {
            alloc_metrics.sync();
            probe();
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                encode_prometheus(&registry.snapshot()),
            )
        }
        ("GET", "/health") => ("200 OK", "application/json", health()),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".into(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Blocking HTTP GET against a local endpoint; returns `(status_code,
/// body)`. Just enough client for self-scrape assertions in benches and
/// tests — not a general HTTP client.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("catalog.commits").add(42);
        reg.counter("alloc.count{phase=\"replay\"}").add(1); // counters may be labeled too
        reg.gauge("dcp.lanes.write_busy").set(3);
        let h = reg.histogram("catalog.commit_lock_hold_ns");
        h.record_ns(500);
        h.record_ns(2_000);
        reg.snapshot()
    }

    #[test]
    fn counters_gauges_histograms_render_standard_format() {
        let text = encode_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE catalog_commits_total counter"));
        assert!(text.contains("catalog_commits_total 42"));
        assert!(text.contains("alloc_count_total{phase=\"replay\"} 1"));
        assert!(text.contains("# TYPE dcp_lanes_write_busy gauge"));
        assert!(text.contains("dcp_lanes_write_busy 3"));
        assert!(text.contains("# TYPE catalog_commit_lock_hold_ns histogram"));
        assert!(text.contains("catalog_commit_lock_hold_ns_bucket{le=\"1000\"} 1"));
        assert!(text.contains("catalog_commit_lock_hold_ns_bucket{le=\"2000\"} 1"));
        assert!(text.contains("catalog_commit_lock_hold_ns_bucket{le=\"4000\"} 2"));
        assert!(text.contains("catalog_commit_lock_hold_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("catalog_commit_lock_hold_ns_sum 2500"));
        assert!(text.contains("catalog_commit_lock_hold_ns_count 2"));
    }

    #[test]
    fn labeled_histograms_merge_le_into_label_block() {
        let reg = MetricsRegistry::new();
        reg.histogram("alloc.wait_ns{phase=\"replay\"}")
            .record_ns(100);
        let text = encode_prometheus(&reg.snapshot());
        assert!(text.contains("alloc_wait_ns_bucket{phase=\"replay\",le=\"1000\"} 1"));
        assert!(text.contains("alloc_wait_ns_sum{phase=\"replay\"} 100"));
        assert!(text.contains("alloc_wait_ns_count{phase=\"replay\"} 1"));
    }

    #[test]
    fn every_line_is_exposition_legal() {
        let text = encode_prometheus(&sample_snapshot());
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let name_part = series.split('{').next().unwrap_or("");
            assert!(
                MetricName::new(name_part).is_ok() && !name_part.contains('.'),
                "illegal series name in: {line}"
            );
        }
    }

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        let reg = MetricsRegistry::new();
        let name = MetricName::new("exec.files")
            .and_then(|n| n.with_label("path", "a\\b\"c\nd"))
            .expect("valid name");
        reg.counter(&name.registry_key()).add(1);
        let text = encode_prometheus(&reg.snapshot());
        assert!(
            text.contains("exec_files_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "unescaped label value in: {text}"
        );
        // The escaped line must stay a single physical line.
        assert!(text.lines().any(|l| l.starts_with("exec_files_total{")));
    }

    #[test]
    fn unparseable_keys_are_sanitized_to_legal_names() {
        let reg = MetricsRegistry::new();
        // Registered behind MetricName's back: digit-leading, dashes, and
        // a stray brace that fails `MetricName::parse`.
        reg.counter("9lives-of.a{cat").add(3);
        reg.gauge("weird metric name!").set(2);
        let text = encode_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE _9lives_of_a_cat_total counter"));
        assert!(text.contains("_9lives_of_a_cat_total 3"));
        assert!(text.contains("weird_metric_name_ 2"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let name_part = line.split([' ', '{']).next().unwrap_or("");
            assert!(
                MetricName::new(name_part).is_ok(),
                "illegal sanitized name in: {line}"
            );
        }
    }

    /// Golden: the phase-attribution series `/metrics` exposes, names and
    /// labels exactly as scrapers and dashboards know them — 13 phases ×
    /// {bytes, count, wait_ns}, in the registry's (label) order.
    #[test]
    fn phase_series_are_byte_stable() {
        const LABELS: [&str; 13] = [
            "manifest_staging",
            "manifest_upload",
            "morsel_execution",
            "parse_plan",
            "profile_bookkeeping",
            "replay",
            "scan_planning",
            "sequencer_publish",
            "statement_dispatch",
            "telemetry",
            "txn_validate",
            "unscoped",
            "write_encode",
        ];
        let reg = MetricsRegistry::new();
        AllocMetrics::register(&reg);
        let text = encode_prometheus(&reg.snapshot());
        let series: Vec<&str> = text
            .lines()
            .filter_map(|line| line.rsplit_once(' ').map(|(series, _)| series))
            .filter(|series| series.contains("{phase="))
            .collect();
        let expected: Vec<String> = [
            "alloc_bytes_total",
            "alloc_count_total",
            "alloc_wait_ns_total",
        ]
        .iter()
        .flat_map(|base| LABELS.map(|label| format!("{base}{{phase=\"{label}\"}}")))
        .collect();
        assert_eq!(series, expected);
    }

    #[test]
    fn empty_registry_scrapes_to_empty_body() {
        let reg = MetricsRegistry::new();
        assert_eq!(encode_prometheus(&reg.snapshot()), "");
        // And over HTTP: an empty exposition is a valid 200, not an error.
        let health: HealthFn = Arc::new(|| "{}".to_owned());
        let mut server = TelemetryServer::start(
            "127.0.0.1:0".parse().expect("loopback addr"),
            MetricsRegistry::new(),
            Arc::new(|| ()),
            health,
        )
        .expect("bind loopback");
        let (status, body) = http_get(server.local_addr(), "/metrics").expect("GET /metrics");
        assert_eq!(status, 200);
        // The server's own alloc/RSS attribution metrics are the only
        // series an otherwise-empty registry exposes.
        for line in body.lines() {
            let name = line.trim_start_matches("# TYPE ").split([' ', '{']).next();
            let name = name.unwrap_or("");
            assert!(
                name.starts_with("alloc_") || name.starts_with("process_"),
                "unexpected series from empty registry: {line}"
            );
        }
        assert!(body.contains("process_resident_bytes"));
        assert!(body.contains("alloc_bytes_total{phase=\"unscoped\"}"));
        server.stop();
    }

    #[test]
    fn server_serves_metrics_health_and_404() {
        let reg = MetricsRegistry::new();
        reg.counter("catalog.commits").add(7);
        let health: HealthFn = Arc::new(|| "{\"status\":\"ok\"}".to_owned());
        // The probe runs before the registry is read: what it sets is in
        // the same scrape.
        let probed = reg.gauge("probe.refreshed");
        let mut server = TelemetryServer::start(
            "127.0.0.1:0".parse().expect("loopback addr"),
            Arc::clone(&reg),
            Arc::new(move || probed.set(1)),
            health,
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        let (status, body) = http_get(addr, "/metrics").expect("GET /metrics");
        assert_eq!(status, 200);
        assert!(body.contains("catalog_commits_total 7"), "{body}");
        assert!(body.contains("probe_refreshed 1"), "{body}");
        let (status, body) = http_get(addr, "/health").expect("GET /health");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}");
        let (status, _) = http_get(addr, "/nope").expect("GET /nope");
        assert_eq!(status, 404);
        server.stop();
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || http_get(addr, "/metrics").is_err(),
            "server kept serving after stop"
        );
    }
}
