//! The key-value data model: cells, puts, and row results.
//!
//! As in HBase, a data item is a key-value pair whose key is the composite
//! `(row-key, column-family, column-name, timestamp)` (§5.1).

use bytes::Bytes;
use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::region::RowData;

/// A write: one cell destined for a row. The row key, the column and the
/// value are `Bytes`, so the puts of one row share its key and the puts of
/// one column its name; a family named by a `&'static str` is not copied
/// into each put of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Put {
    pub row: Bytes,
    pub family: Cow<'static, str>,
    pub column: Bytes,
    pub value: Bytes,
}

impl Put {
    pub fn new(
        row: impl Into<Bytes>,
        family: impl Into<Cow<'static, str>>,
        column: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Self {
        Put {
            row: row.into(),
            family: family.into(),
            column: column.into(),
            value: value.into(),
        }
    }
}

/// A stored cell version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellVersion {
    /// Logical timestamp assigned at write time (monotonically increasing
    /// per store).
    pub timestamp: u64,
    pub value: Bytes,
    /// CRC-32 of `value`, stamped at write time and re-verified on every
    /// read so at-rest bit rot surfaces as a typed error instead of
    /// silently corrupting decoded profiles.
    pub checksum: u32,
}

impl CellVersion {
    /// Stamp a new version with its value checksum.
    pub fn new(timestamp: u64, value: Bytes) -> Self {
        let checksum = crate::encoding::crc32(&value);
        CellVersion {
            timestamp,
            value,
            checksum,
        }
    }

    /// Whether the stored value still matches its write-time checksum.
    pub fn verify(&self) -> bool {
        intact(&self.value, self.checksum)
    }
}

/// Whether `value` still matches `checksum`, the CRC-32 stamped on it when
/// it was written: the check every read of a cell makes, wherever the cell
/// is stored.
pub(crate) fn intact(value: &[u8], checksum: u32) -> bool {
    crate::encoding::crc32(value) == checksum
}

/// The first retained version in `rows`, in row, family, column and version
/// order, whose value no longer matches its write-time checksum, as `(row,
/// column, timestamp)`. A read checks only the versions it returns; this
/// checks every one, so corruption that a newer write superseded is still
/// found (`store_fsck`'s deep pass, a heal donor's export).
pub fn first_bad_version<'a>(
    rows: impl IntoIterator<Item = (&'a Bytes, &'a RowData)>,
) -> Option<(&'a Bytes, &'a Bytes, u64)> {
    rows.into_iter().find_map(|(row, data)| {
        let mut columns = data.iter().flat_map(|(_, columns)| columns);
        columns.find_map(|(column, versions)| {
            let bad = versions.iter().find(|v| !v.verify())?;
            Some((row, column, bad.timestamp))
        })
    })
}

/// A materialized row returned by gets and scans: family → column → latest
/// cell.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowResult {
    pub row: Bytes,
    pub families: BTreeMap<String, BTreeMap<Bytes, CellVersion>>,
}

impl RowResult {
    pub fn new(row: Bytes) -> Self {
        RowResult {
            row,
            families: BTreeMap::new(),
        }
    }

    /// Latest value of a column, if present.
    pub fn value(&self, family: &str, column: &[u8]) -> Option<&Bytes> {
        self.families
            .get(family)
            .and_then(|cols| cols.get(column))
            .map(|c| &c.value)
    }

    /// All `(column, value)` pairs of one family.
    pub fn columns(&self, family: &str) -> Vec<(&Bytes, &Bytes)> {
        self.families
            .get(family)
            .map(|cols| cols.iter().map(|(c, v)| (c, &v.value)).collect())
            .unwrap_or_default()
    }

    /// Number of cells across all families.
    pub fn cell_count(&self) -> usize {
        self.families.values().map(BTreeMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_result_lookups() {
        let mut r = RowResult::new(Bytes::from("row1"));
        r.families
            .entry("cf".to_string())
            .or_default()
            .insert(Bytes::from("colA"), CellVersion::new(3, Bytes::from("v")));
        assert_eq!(r.value("cf", b"colA").unwrap(), &Bytes::from("v"));
        assert!(r.value("cf", b"colB").is_none());
        assert!(r.value("nope", b"colA").is_none());
        assert_eq!(r.cell_count(), 1);
        assert_eq!(r.columns("cf").len(), 1);
    }

    #[test]
    fn checksum_verifies_and_detects_tampering() {
        let mut c = CellVersion::new(1, Bytes::from("payload"));
        assert!(c.verify());
        c.value = Bytes::from("paylord");
        assert!(!c.verify());
    }

    #[test]
    fn put_builder() {
        let p = Put::new("r", "cf", "c", "v");
        assert_eq!(p.row, Bytes::from("r"));
        assert_eq!(p.family, "cf");
    }
}
