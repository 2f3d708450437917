//! The `GET /v1/index` listing: every readable sealed entry's
//! fingerprint and key metadata, read from the entry headers on each
//! request. The headers are the store's one record of each entry's key,
//! so the listing cannot go stale.

use crate::codec::{open_frame, seal_frame};
use crate::fingerprint::Fingerprint;
use crate::store::{EntryMeta, Store, StoreError};

const INDEX_MAGIC: &[u8; 8] = b"TFINDEX\0";

/// One listed entry: a sealed fingerprint and its key metadata.
#[derive(Clone, Debug)]
pub struct IndexEntry {
    /// The sealed entry's fingerprint (its file name stem).
    pub fingerprint: Fingerprint,
    /// The entry's key metadata, as recorded in its header.
    pub meta: EntryMeta,
}

/// Every sealed entry whose header reads, sorted by fingerprint.
/// Unreadable entries are left out; `store verify` reports them.
///
/// # Errors
///
/// Returns the underlying error when the directory is unreadable.
pub fn scan(store: &Store) -> Result<Vec<IndexEntry>, StoreError> {
    Ok(store
        .entries()?
        .into_iter()
        .filter_map(|fingerprint| {
            let meta = store.open_suite(fingerprint).ok()?.meta().clone();
            Some(IndexEntry { fingerprint, meta })
        })
        .collect())
}

/// Encodes a listing to its wire form (`GET /v1/index`): a frame whose
/// payload is the entries sorted by fingerprint.
pub fn encode(entries: &[IndexEntry]) -> Vec<u8> {
    let mut sorted: Vec<&IndexEntry> = entries.iter().collect();
    sorted.sort_by_key(|e| e.fingerprint);
    seal_frame(INDEX_MAGIC, |e| {
        e.size(sorted.len());
        for entry in sorted {
            e.u64((entry.fingerprint.0 >> 64) as u64);
            e.u64(entry.fingerprint.0 as u64);
            entry.meta.encode(e);
        }
    })
}

/// Decodes a listing — the [`encode`] form.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on damaged bytes, [`StoreError::Version`] on
/// format skew.
pub fn decode(bytes: &[u8]) -> Result<Vec<IndexEntry>, StoreError> {
    let mut d = open_frame(bytes, INDEX_MAGIC, "index")?;
    let count = d.size_bounded(1 << 24, "index entries")?;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let hi = d.u64()?;
        let lo = d.u64()?;
        let fingerprint = Fingerprint((u128::from(hi) << 64) | u128::from(lo));
        let meta = EntryMeta::decode(&mut d)?;
        entries.push(IndexEntry { fingerprint, meta });
    }
    if !d.at_end() {
        return Err(StoreError::Corrupt("trailing bytes in index".into()));
    }
    Ok(entries)
}
