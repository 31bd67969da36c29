//! Storage substrates for the web benchmarks: a Cassandra-flavoured
//! wide-row store (DjangoBench) and a MySQL-flavoured page table
//! (MediaWiki).
//!
//! Both are deliberately simple — ordered in-memory structures with
//! deterministic synthetic content — but exercise the same access shapes
//! as their production counterparts: partition-key lookup plus clustered
//! range scans for the wide-row store, and primary-key point reads for the
//! page table.

use dcperf_util::{Rng, SplitMix64};
use std::collections::BTreeMap;

/// A row in a wide-row partition: clustering key → column payload.
pub type WideRow = BTreeMap<u64, Vec<u8>>;

/// A Cassandra-style wide-row store: `partition key → (clustering key →
/// value)`, supporting point reads, inserts, and range scans.
///
/// # Examples
///
/// ```
/// use dcperf_workloads::store::WideRowStore;
///
/// let mut store = WideRowStore::new();
/// store.insert(7, 100, vec![1, 2, 3]);
/// store.insert(7, 101, vec![4]);
/// assert_eq!(store.get(7, 100), Some(&[1u8, 2, 3][..]));
/// assert_eq!(store.scan(7, 100, 10).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct WideRowStore {
    partitions: BTreeMap<u64, WideRow>,
}

impl WideRowStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) one column value.
    pub fn insert(&mut self, partition: u64, clustering: u64, value: Vec<u8>) {
        self.partitions
            .entry(partition)
            .or_default()
            .insert(clustering, value);
    }

    /// Point read.
    pub fn get(&self, partition: u64, clustering: u64) -> Option<&[u8]> {
        self.partitions
            .get(&partition)
            .and_then(|row| row.get(&clustering))
            .map(Vec::as_slice)
    }

    /// Range scan: up to `limit` columns starting at `from` (inclusive),
    /// in clustering order — the timeline read pattern.
    pub fn scan(&self, partition: u64, from: u64, limit: usize) -> Vec<(&u64, &Vec<u8>)> {
        match self.partitions.get(&partition) {
            Some(row) => row.range(from..).take(limit).collect(),
            None => Vec::new(),
        }
    }

    /// Batched range scan: one [`WideRowStore::scan`] per requested
    /// partition, in input order — the shape a pipelined burst of feed
    /// requests presents after being grouped by the cache batch pass.
    pub fn scan_many(&self, requests: &[(u64, u64, usize)]) -> Vec<Vec<(&u64, &Vec<u8>)>> {
        requests
            .iter()
            .map(|&(partition, from, limit)| self.scan(partition, from, limit))
            .collect()
    }

    /// Populates `users` partitions with `columns` deterministic entries
    /// each (used at benchmark install time).
    pub fn populate(&mut self, users: u64, columns: u64, seed: u64) {
        for user in 0..users {
            let row = self.partitions.entry(user).or_default();
            let mut rng = SplitMix64::new(seed ^ user.wrapping_mul(0x9E37_79B9));
            for col in 0..columns {
                let len = (rng.next_u64() % 200 + 40) as usize;
                let mut value = vec![0u8; len];
                rng.fill_bytes(&mut value);
                row.insert(col, value);
            }
        }
    }
}

/// A MediaWiki page record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRecord {
    /// Page id (primary key).
    pub id: u64,
    /// Title.
    pub title: String,
    /// Wiki-markup source text.
    pub source: String,
    /// Revision counter.
    pub revision: u64,
}

/// A MySQL-flavoured page table with primary-key access and revision
/// bumps, backing the MediaWiki benchmark.
#[derive(Debug, Default)]
pub struct PageStore {
    pages: BTreeMap<u64, PageRecord>,
}

impl PageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a page.
    pub fn insert(&mut self, page: PageRecord) {
        self.pages.insert(page.id, page);
    }

    /// Primary-key read.
    pub fn get(&self, id: u64) -> Option<&PageRecord> {
        self.pages.get(&id)
    }

    /// Batched primary-key read, in input order — the multi-page probe a
    /// pipelined burst of views resolves in one store pass.
    pub fn get_many(&self, ids: &[u64]) -> Vec<Option<&PageRecord>> {
        ids.iter().map(|&id| self.get(id)).collect()
    }

    /// Applies an edit: appends to the source and bumps the revision.
    /// Returns the new revision, or `None` for unknown pages.
    pub fn edit(&mut self, id: u64, appended: &str) -> Option<u64> {
        let page = self.pages.get_mut(&id)?;
        page.source.push_str(appended);
        page.revision += 1;
        Some(page.revision)
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_row_point_and_range() {
        let mut s = WideRowStore::new();
        for c in 0..10u64 {
            s.insert(1, c, vec![c as u8]);
        }
        assert_eq!(s.get(1, 5), Some(&[5u8][..]));
        assert!(s.get(2, 0).is_none());
        let scan = s.scan(1, 4, 3);
        assert_eq!(scan.len(), 3);
        assert_eq!(*scan[0].0, 4);
        assert_eq!(*scan[2].0, 6);
        assert!(s.scan(9, 0, 5).is_empty());
    }

    #[test]
    fn wide_row_scan_many_matches_scalar_scans() {
        let mut s = WideRowStore::new();
        for p in 0..4u64 {
            for c in 0..10u64 {
                s.insert(p, c, vec![(p * 10 + c) as u8]);
            }
        }
        let requests = [(0u64, 2u64, 3usize), (3, 0, 5), (9, 0, 4), (1, 8, 10)];
        let batched = s.scan_many(&requests);
        assert_eq!(batched.len(), requests.len());
        for (i, &(p, from, limit)) in requests.iter().enumerate() {
            assert_eq!(batched[i], s.scan(p, from, limit), "request {i}");
        }
    }

    #[test]
    fn page_store_get_many_matches_scalar_gets() {
        let mut s = PageStore::new();
        for id in 1..=3u64 {
            s.insert(PageRecord {
                id,
                title: format!("Page {id}"),
                source: "text".into(),
                revision: 1,
            });
        }
        let got = s.get_many(&[2, 9, 1]);
        assert_eq!(got[0].map(|p| p.id), Some(2));
        assert!(got[1].is_none());
        assert_eq!(got[2].map(|p| p.id), Some(1));
    }

    #[test]
    fn wide_row_populate_is_deterministic() {
        let mut a = WideRowStore::new();
        let mut b = WideRowStore::new();
        a.populate(5, 8, 42);
        b.populate(5, 8, 42);
        assert_eq!(a.partitions.len(), 5);
        for user in 0..5 {
            for col in 0..8 {
                assert_eq!(a.get(user, col), b.get(user, col));
            }
        }
    }

    #[test]
    fn wide_row_replace_keeps_one_value() {
        let mut s = WideRowStore::new();
        s.insert(1, 1, vec![1]);
        s.insert(1, 1, vec![2]);
        assert_eq!(s.get(1, 1), Some(&[2u8][..]));
        assert_eq!(s.partitions[&1].len(), 1);
    }

    #[test]
    fn page_store_edit_bumps_revision() {
        let mut s = PageStore::new();
        s.insert(PageRecord {
            id: 1,
            title: "Barack Obama".into(),
            source: "== Early life ==".into(),
            revision: 1,
        });
        assert_eq!(s.edit(1, "\nmore text"), Some(2));
        assert!(s.get(1).unwrap().source.contains("more text"));
        assert_eq!(s.edit(99, "x"), None);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
