//! Manifest actions: the log-entry vocabulary of log-structured tables,
//! and their binary records (see [`crate::codec`]).

use crate::codec::{put_f64, put_i64, put_str, put_u64, Codec, DecodeResult, Reader};

/// A scalar bound carried in manifest statistics — a serializable mirror
/// of the engine's `Value` restricted to orderable types.
#[derive(Debug, Clone, PartialEq)]
pub enum RangeVal {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Days since epoch.
    Date(i32),
}

impl RangeVal {
    /// Convert from an engine scalar; `None` for NULL (no bound).
    pub fn from_value(v: &polaris_columnar::Value) -> Option<RangeVal> {
        use polaris_columnar::Value;
        Some(match v {
            Value::Null => return None,
            Value::Int(x) => RangeVal::Int(*x),
            Value::Float(x) => RangeVal::Float(*x),
            Value::Str(x) => RangeVal::Str(x.clone()),
            Value::Bool(x) => RangeVal::Bool(*x),
            Value::Date(x) => RangeVal::Date(*x),
        })
    }

    /// Convert back to an engine scalar.
    pub fn to_value(&self) -> polaris_columnar::Value {
        use polaris_columnar::Value;
        match self {
            RangeVal::Int(x) => Value::Int(*x),
            RangeVal::Float(x) => Value::Float(*x),
            RangeVal::Str(x) => Value::Str(x.clone()),
            RangeVal::Bool(x) => Value::Bool(*x),
            RangeVal::Date(x) => Value::Date(*x),
        }
    }
}

/// Per-column min/max carried in the manifest (the Delta-Lake-style
/// file statistics): lets the FE/BE prune files against predicates
/// *without fetching them* — metadata-only pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct ColRange {
    /// Column name.
    pub column: String,
    /// Minimum non-null value in the file.
    pub min: RangeVal,
    /// Maximum non-null value in the file.
    pub max: RangeVal,
}

/// Metadata for a data file referenced by a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFileEntry {
    /// Blob path of the columnar data file.
    pub path: String,
    /// Row count (before delete-vector masking).
    pub rows: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Distribution bucket the file's cells belong to (§2.3's `d(r)`).
    pub distribution: u32,
    /// Optional per-column ranges for metadata-only pruning. Columns with
    /// only NULLs (or non-orderable stats) are simply absent.
    pub col_ranges: Vec<ColRange>,
}

/// Metadata for a delete-vector file attached to a data file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DvEntry {
    /// Blob path of the delete-vector file.
    pub path: String,
    /// Number of rows the vector marks deleted.
    pub cardinality: u64,
}

/// One log entry in a manifest file.
///
/// The four-action vocabulary matches the paper's §4.2 example: inserts
/// `Add` data files; deletes `Add` a delete vector (and, when one already
/// existed for the target file, `RemoveDv` the old one and `Add` the merged
/// version); compaction `Remove`s rewritten data files and `Add`s their
/// replacements.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestAction {
    /// A new immutable data file joined the table.
    AddFile(DataFileEntry),
    /// A data file was logically removed (rewritten or fully deleted). The
    /// physical blob remains until garbage collection (§5.3).
    RemoveFile {
        /// Path of the removed data file.
        path: String,
    },
    /// A delete vector now masks rows of `data_file`.
    AddDv {
        /// Path of the data file the vector applies to.
        data_file: String,
        /// The delete-vector file.
        dv: DvEntry,
    },
    /// A previous delete vector of `data_file` was superseded.
    RemoveDv {
        /// Path of the data file the vector applied to.
        data_file: String,
        /// Path of the superseded delete-vector file.
        dv_path: String,
    },
}

impl ManifestAction {
    /// Convenience constructor for [`ManifestAction::AddFile`].
    pub fn add_file(path: impl Into<String>, rows: u64, bytes: u64, distribution: u32) -> Self {
        ManifestAction::AddFile(DataFileEntry {
            path: path.into(),
            rows,
            bytes,
            distribution,
            col_ranges: Vec::new(),
        })
    }

    /// Convenience constructor for [`ManifestAction::RemoveFile`].
    pub fn remove_file(path: impl Into<String>) -> Self {
        ManifestAction::RemoveFile { path: path.into() }
    }

    /// Convenience constructor for [`ManifestAction::AddDv`].
    pub fn add_dv(
        data_file: impl Into<String>,
        dv_path: impl Into<String>,
        cardinality: u64,
    ) -> Self {
        ManifestAction::AddDv {
            data_file: data_file.into(),
            dv: DvEntry {
                path: dv_path.into(),
                cardinality,
            },
        }
    }

    /// Convenience constructor for [`ManifestAction::RemoveDv`].
    pub fn remove_dv(data_file: impl Into<String>, dv_path: impl Into<String>) -> Self {
        ManifestAction::RemoveDv {
            data_file: data_file.into(),
            dv_path: dv_path.into(),
        }
    }
}

/// Tag, then the value: `Int` and `Date` zig-zag, `Float` its bits, `Str` a
/// string, `Bool` 0 or 1.
impl Codec for RangeVal {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RangeVal::Int(v) => {
                put_u64(out, 0);
                put_i64(out, *v);
            }
            RangeVal::Float(v) => {
                put_u64(out, 1);
                put_f64(out, *v);
            }
            RangeVal::Str(v) => {
                put_u64(out, 2);
                put_str(out, v);
            }
            RangeVal::Bool(v) => {
                put_u64(out, 3);
                put_u64(out, u64::from(*v));
            }
            RangeVal::Date(v) => {
                put_u64(out, 4);
                put_i64(out, i64::from(*v));
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(match r.tag(5)? {
            0 => RangeVal::Int(r.i64()?),
            1 => RangeVal::Float(r.f64()?),
            2 => RangeVal::Str(String::decode(r)?),
            3 => RangeVal::Bool(r.bool()?),
            _ => RangeVal::Date(r.i32()?),
        })
    }
}

impl Codec for ColRange {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.column);
        self.min.encode(out);
        self.max.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(ColRange {
            column: String::decode(r)?,
            min: RangeVal::decode(r)?,
            max: RangeVal::decode(r)?,
        })
    }
}

impl Codec for DataFileEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.path);
        put_u64(out, self.rows);
        put_u64(out, self.bytes);
        put_u64(out, u64::from(self.distribution));
        self.col_ranges.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(DataFileEntry {
            path: String::decode(r)?,
            rows: r.u64()?,
            bytes: r.u64()?,
            distribution: r.u32()?,
            col_ranges: Vec::decode(r)?,
        })
    }
}

impl Codec for DvEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.path);
        put_u64(out, self.cardinality);
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(DvEntry {
            path: String::decode(r)?,
            cardinality: r.u64()?,
        })
    }
}

/// One manifest record: the action's tag (`AddFile` 0, `RemoveFile` 1,
/// `AddDv` 2, `RemoveDv` 3), then its fields in declaration order.
impl Codec for ManifestAction {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ManifestAction::AddFile(entry) => {
                put_u64(out, 0);
                entry.encode(out);
            }
            ManifestAction::RemoveFile { path } => {
                put_u64(out, 1);
                put_str(out, path);
            }
            ManifestAction::AddDv { data_file, dv } => {
                put_u64(out, 2);
                put_str(out, data_file);
                dv.encode(out);
            }
            ManifestAction::RemoveDv { data_file, dv_path } => {
                put_u64(out, 3);
                put_str(out, data_file);
                put_str(out, dv_path);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(match r.tag(4)? {
            0 => ManifestAction::AddFile(DataFileEntry::decode(r)?),
            1 => ManifestAction::RemoveFile {
                path: String::decode(r)?,
            },
            2 => ManifestAction::AddDv {
                data_file: String::decode(r)?,
                dv: DvEntry::decode(r)?,
            },
            _ => ManifestAction::RemoveDv {
                data_file: String::decode(r)?,
                dv_path: String::decode(r)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_all;

    #[test]
    fn round_trip_all_variants() {
        let mut with_ranges = ManifestAction::add_file("t/data/f2.pcf", 3, 64, 1);
        if let ManifestAction::AddFile(entry) = &mut with_ranges {
            entry.col_ranges = vec![
                ColRange {
                    column: "k".into(),
                    min: RangeVal::Int(i64::MIN),
                    max: RangeVal::Int(i64::MAX),
                },
                ColRange {
                    column: "x".into(),
                    min: RangeVal::Float(-0.0),
                    max: RangeVal::Float(f64::INFINITY),
                },
                ColRange {
                    column: "s".into(),
                    min: RangeVal::Str(String::new()),
                    max: RangeVal::Str("zß".into()),
                },
                ColRange {
                    column: "b".into(),
                    min: RangeVal::Bool(false),
                    max: RangeVal::Bool(true),
                },
                ColRange {
                    column: "d".into(),
                    min: RangeVal::Date(i32::MIN),
                    max: RangeVal::Date(i32::MAX),
                },
            ];
        }
        let actions = vec![
            ManifestAction::add_file("t/data/f1.pcf", 100, 2048, 3),
            with_ranges,
            ManifestAction::remove_file("t/data/f0.pcf"),
            ManifestAction::add_dv("t/data/f1.pcf", "t/dv/f1.dv", 7),
            ManifestAction::remove_dv("t/data/f1.pcf", "t/dv/old.dv"),
        ];
        for a in actions {
            let mut bytes = Vec::new();
            a.encode(&mut bytes);
            assert_eq!(decode_all::<ManifestAction>(&bytes), Ok(a));
        }
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        // A date beyond i32 and a distribution beyond u32.
        let mut date = vec![4];
        put_i64(&mut date, i64::from(i32::MAX) + 1);
        assert!(decode_all::<RangeVal>(&date).is_err());
        let mut entry = Vec::new();
        put_str(&mut entry, "f");
        put_u64(&mut entry, 1);
        put_u64(&mut entry, 1);
        put_u64(&mut entry, u64::from(u32::MAX) + 1);
        put_u64(&mut entry, 0);
        assert_eq!(decode_all::<DataFileEntry>(&entry).unwrap_err().offset, 4);
    }
}
