//! Server-side filters (the "filter-reaching mechanism" of §5.3).
//!
//! Filters are shipped to region servers and evaluated during the scan,
//! on each row where the scan walks it, so only passing rows are
//! materialized and travel back to the client — the optimization PStorM
//! relies on to keep matching scalable as the store grows.

use bytes::Bytes;

use crate::region::RowView;

/// A predicate evaluated at the region server against a row as the scan
/// walks it, before any row is materialized.
pub trait Filter: Send + Sync {
    fn matches(&self, row: &RowView<'_>) -> bool;
}

/// Pass rows whose row key starts with a prefix — the idiom for feature-
/// type-prefixed row keys in the PStorM data model (Table 5.1).
pub struct RowPrefixFilter {
    pub prefix: Bytes,
}

impl Filter for RowPrefixFilter {
    fn matches(&self, row: &RowView<'_>) -> bool {
        row.key.starts_with(&self.prefix)
    }
}

/// Comparison operators for column-value filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Equal,
    NotEqual,
    Less,
    LessOrEqual,
    Greater,
    GreaterOrEqual,
}

/// Pass rows whose column's latest value compares against a constant
/// (bytewise, like HBase's `SingleColumnValueFilter`). Rows missing the
/// column are dropped.
pub struct SingleColumnValueFilter {
    pub family: String,
    pub column: Bytes,
    pub op: CompareOp,
    pub value: Bytes,
}

impl Filter for SingleColumnValueFilter {
    fn matches(&self, row: &RowView<'_>) -> bool {
        let (family, column) = (self.family.as_bytes(), self.column.as_ref());
        let mut cells = row.cells.iter();
        let Some(cell) = cells.find(|c| c.family == family && c.column == column) else {
            return false;
        };
        let ord = cell.value.cmp(self.value.as_ref());
        match self.op {
            CompareOp::Equal => ord.is_eq(),
            CompareOp::NotEqual => ord.is_ne(),
            CompareOp::Less => ord.is_lt(),
            CompareOp::LessOrEqual => ord.is_le(),
            CompareOp::Greater => ord.is_gt(),
            CompareOp::GreaterOrEqual => ord.is_ge(),
        }
    }
}

/// An arbitrary predicate — what PStorM uses to push its Euclidean-
/// distance and Jaccard filters down to the region servers.
pub struct PredicateFilter<F: Fn(&RowView<'_>) -> bool + Send + Sync> {
    pub pred: F,
}

impl<F: Fn(&RowView<'_>) -> bool + Send + Sync> Filter for PredicateFilter<F> {
    fn matches(&self, row: &RowView<'_>) -> bool {
        (self.pred)(row)
    }
}

/// Conjunction of filters (HBase `FilterList` with `MUST_PASS_ALL`).
pub struct FilterList {
    pub filters: Vec<Box<dyn Filter>>,
}

impl Filter for FilterList {
    fn matches(&self, row: &RowView<'_>) -> bool {
        self.filters.iter().all(|f| f.matches(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{CellVersion, RowResult};

    fn row(key: &str, col_val: Option<(&str, &str)>) -> RowResult {
        let mut r = RowResult::new(Bytes::copy_from_slice(key.as_bytes()));
        if let Some((c, v)) = col_val {
            r.families.entry("f".to_string()).or_default().insert(
                Bytes::copy_from_slice(c.as_bytes()),
                CellVersion::new(1, Bytes::copy_from_slice(v.as_bytes())),
            );
        }
        r
    }

    /// Whether `filter` passes `row` as a scan walks it.
    fn passes(filter: &dyn Filter, row: &RowResult) -> bool {
        filter.matches(&row.view(&mut Vec::new()))
    }

    #[test]
    fn prefix_filter() {
        let f = RowPrefixFilter {
            prefix: Bytes::from("Static/"),
        };
        assert!(passes(&f, &row("Static/job1", None)));
        assert!(!passes(&f, &row("Dynamic/job1", None)));
    }

    #[test]
    fn column_value_filter_ops() {
        let mk = |op| SingleColumnValueFilter {
            family: "f".to_string(),
            column: Bytes::from("c"),
            op,
            value: Bytes::from("m"),
        };
        let lo = row("r", Some(("c", "a")));
        let eq = row("r", Some(("c", "m")));
        let hi = row("r", Some(("c", "z")));
        assert!(passes(&mk(CompareOp::Less), &lo));
        assert!(!passes(&mk(CompareOp::Less), &eq));
        assert!(passes(&mk(CompareOp::Equal), &eq));
        assert!(passes(&mk(CompareOp::GreaterOrEqual), &hi));
        assert!(passes(&mk(CompareOp::NotEqual), &hi));
    }

    #[test]
    fn missing_column_never_matches() {
        let f = SingleColumnValueFilter {
            family: "f".to_string(),
            column: Bytes::from("c"),
            op: CompareOp::NotEqual,
            value: Bytes::from("x"),
        };
        assert!(!passes(&f, &row("r", None)));
    }

    #[test]
    fn filter_list_is_conjunction() {
        let list = FilterList {
            filters: vec![
                Box::new(RowPrefixFilter {
                    prefix: Bytes::from("S"),
                }),
                Box::new(PredicateFilter {
                    pred: |r: &RowView<'_>| !r.cells.is_empty(),
                }),
            ],
        };
        assert!(passes(&list, &row("S1", Some(("c", "v")))));
        assert!(!passes(&list, &row("S1", None)));
        assert!(!passes(&list, &row("D1", Some(("c", "v")))));
    }
}
