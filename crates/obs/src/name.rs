//! Metric-name hygiene: validated names with structured labels.
//!
//! The registry keys metrics by plain strings, which makes it easy to
//! interpolate ad-hoc suffixes (`alloc.bytes.replay`) that no dashboard or
//! exposition format can parse back apart. [`MetricName`] is the central
//! builder: it validates the base name against the Prometheus grammar
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*` after the internal `.` separators are
//! mapped to `_`), carries dimensions like an engine phase as *labels*, and
//! renders one canonical registry key (`base{label="value",...}`) that
//! [`encode_prometheus`](crate::prom::encode_prometheus) splits back into
//! standard exposition form.

use std::fmt;

/// Why a metric name was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameError {
    msg: String,
}

impl NameError {
    fn new(msg: impl Into<String>) -> Self {
        NameError { msg: msg.into() }
    }
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid metric name: {}", self.msg)
    }
}

impl std::error::Error for NameError {}

/// A validated metric name: a base in the crate's `component.metric`
/// convention plus zero or more labels. `.` is the internal namespace
/// separator and maps to `_` in Prometheus exposition; everything else
/// must already be Prometheus-legal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricName {
    base: String,
    labels: Vec<(String, String)>,
}

/// Is `s` a legal base name? `[a-zA-Z_:.][a-zA-Z0-9_:.]*`, no empty
/// dot-separated segment (so `a..b` and trailing dots are rejected).
fn valid_base(s: &str) -> bool {
    !s.is_empty()
        && s.split('.').all(|seg| {
            let mut chars = seg.chars();
            match chars.next() {
                Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
                _ => return false,
            }
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        })
}

/// Escape a label value for the canonical registry key: backslash, quote,
/// newline — the same set the Prometheus exposition format escapes, so
/// registry keys stay single-line and [`MetricName::parse`] can invert
/// the escaping exactly.
fn escape_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Invert [`escape_value`]. Unknown escape sequences pass through
/// verbatim (backslash preserved) so parsing never loses information.
fn unescape_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Is `s` a legal label name? `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl MetricName {
    /// Validate `base` (the crate's dotted `component.metric` convention).
    pub fn new(base: &str) -> Result<Self, NameError> {
        if !valid_base(base) {
            return Err(NameError::new(format!(
                "base {base:?} must match [a-zA-Z_:][a-zA-Z0-9_:]* per dot-separated segment"
            )));
        }
        Ok(MetricName {
            base: base.to_owned(),
            labels: Vec::new(),
        })
    }

    /// Attach a label. Label names must match `[a-zA-Z_][a-zA-Z0-9_]*`;
    /// values may be anything (they are quoted in the registry key).
    /// Labels render in insertion order.
    pub fn with_label(mut self, name: &str, value: impl fmt::Display) -> Result<Self, NameError> {
        if !valid_label(name) {
            return Err(NameError::new(format!(
                "label {name:?} must match [a-zA-Z_][a-zA-Z0-9_]*"
            )));
        }
        self.labels.push((name.to_owned(), value.to_string()));
        Ok(self)
    }

    /// The base name (dotted form, no labels).
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The labels, in insertion order.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The canonical registry key: `base` when label-free, otherwise
    /// `base{k="v",...}`. This is the string under which the metric is
    /// registered, so snapshots stay plain `BTreeMap<String, _>`.
    pub fn registry_key(&self) -> String {
        if self.labels.is_empty() {
            return self.base.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_value(v)))
            .collect();
        format!("{}{{{}}}", self.base, labels.join(","))
    }

    /// The Prometheus-mangled base: dots become underscores. Guaranteed to
    /// match `[a-zA-Z_:][a-zA-Z0-9_:]*` by construction.
    pub fn prometheus_base(&self) -> String {
        self.base.replace('.', "_")
    }

    /// Parse a registry key back into base + labels. Accepts both plain
    /// dotted names and the canonical `base{k="v",...}` form; anything
    /// else (including an ad-hoc `.suffix` convention) is an
    /// error, which is what keeps new call sites honest.
    pub fn parse(key: &str) -> Result<Self, NameError> {
        let Some(brace) = key.find('{') else {
            return MetricName::new(key);
        };
        let (base, rest) = key.split_at(brace);
        let inner = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or_else(|| NameError::new(format!("unbalanced braces in {key:?}")))?;
        let mut name = MetricName::new(base)?;
        for part in inner.split(',') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| NameError::new(format!("label without '=' in {key:?}")))?;
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| NameError::new(format!("unquoted label value in {key:?}")))?;
            name = name.with_label(k, unescape_value(v))?;
        }
        Ok(name)
    }
}

impl fmt::Display for MetricName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.registry_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_dotted_bases_and_rejects_junk() {
        assert!(MetricName::new("catalog.commits").is_ok());
        assert!(MetricName::new("sto.gc_deleted").is_ok());
        assert!(MetricName::new("a:b").is_ok());
        assert!(MetricName::new("").is_err());
        assert!(MetricName::new("1abc").is_err());
        assert!(MetricName::new("a..b").is_err());
        assert!(MetricName::new("a.b.").is_err());
        assert!(MetricName::new("a-b").is_err());
        assert!(MetricName::new("alloc.bytes.phase{0}").is_err());
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let n = MetricName::new("exec.files")
            .and_then(|n| n.with_label("path", "a\\b\"c\nd"))
            .unwrap();
        assert_eq!(n.registry_key(), "exec.files{path=\"a\\\\b\\\"c\\nd\"}");
        let back = MetricName::parse(&n.registry_key()).unwrap();
        assert_eq!(back.labels()[0].1, "a\\b\"c\nd");
        assert_eq!(back, n);
    }

    #[test]
    fn parse_rejects_legacy_suffix_convention_labels() {
        assert!(MetricName::parse("catalog.commits").is_ok());
        assert!(MetricName::parse("x{phase=3}").is_err()); // unquoted
        assert!(MetricName::parse("x{phase=\"3\"").is_err()); // unbalanced
        assert!(MetricName::parse("x{=\"3\"}").is_err());
    }

    #[test]
    fn bad_label_names_rejected() {
        let n = MetricName::new("x").unwrap();
        assert!(n.clone().with_label("1phase", 0).is_err());
        assert!(n.clone().with_label("pha-se", 0).is_err());
        assert!(n.with_label("phase_0", 1).is_ok());
    }
}
