//! Paged cold-tier reader: a bounded cache of fixed-size, page-aligned
//! windows over the flushed byte log.
//!
//! The store never holds decoded rows in memory — the index maps keys to
//! byte spans, and this pager materialises just the pages a lookup
//! touches. Eviction is insertion-order FIFO ([`FifoMap`], the container
//! behind every runtime cache): simple, allocation-light, and good enough
//! because the hot working set above us is already served by the
//! verify-cache/memo layers.

use jaap_obs::bounded::FifoMap;
use jaap_wal::JournalStore;

use crate::StoreError;

/// A bounded page cache over a [`JournalStore`]'s flushed prefix.
#[derive(Debug)]
pub(crate) struct Pager {
    /// Page size in bytes; spans are read page-by-page.
    page_size: u64,
    /// Resident full pages by page number, bounded oldest-first.
    pages: FifoMap<u64, Vec<u8>>,
    /// Cache misses (pages fetched from the store).
    pub(crate) misses: u64,
}

impl Pager {
    pub(crate) fn new(page_size: u64, capacity: usize) -> Self {
        Pager {
            page_size: page_size.max(512),
            pages: FifoMap::new(Some(capacity.max(1))),
            misses: 0,
        }
    }

    /// Pages evicted to stay within the page budget.
    pub(crate) fn evictions(&self) -> u64 {
        self.pages.evictions()
    }

    /// Bytes held by resident pages (only full pages are cached).
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * self.page_size
    }

    /// Resident page count.
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Shrinks (or grows) the page budget, evicting immediately if over.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.pages.set_capacity(Some(capacity.max(1)));
    }

    /// Reads `[offset, offset+len)` from the flushed log through the page
    /// cache. Only *full* pages are cached: a partial page at the flushed
    /// frontier will grow on the next flush, so caching it would serve
    /// stale short reads.
    pub(crate) fn read_span(
        &mut self,
        store: &dyn JournalStore,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let page_no = pos / self.page_size;
            let page_base = page_no * self.page_size;
            let in_page = (pos - page_base) as usize;
            let want = ((end - pos) as usize).min(self.page_size as usize - in_page);
            if let Some(page) = self.pages.get(&page_no) {
                if page.len() < in_page + want {
                    return Err(StoreError::Corrupt(format!(
                        "page {page_no} shorter than indexed span ({} < {})",
                        page.len(),
                        in_page + want
                    )));
                }
                out.extend_from_slice(&page[in_page..in_page + want]);
            } else {
                self.misses += 1;
                let page = store
                    .read_range(page_base, self.page_size)
                    .map_err(|e| StoreError::Io(e.to_string()))?;
                if page.len() < in_page + want {
                    return Err(StoreError::Corrupt(format!(
                        "store returned short page {page_no} ({} < {})",
                        page.len(),
                        in_page + want
                    )));
                }
                out.extend_from_slice(&page[in_page..in_page + want]);
                if page.len() == self.page_size as usize {
                    self.pages.insert(page_no, page);
                }
            }
            pos += want as u64;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_wal::MemStore;

    #[test]
    fn spans_cross_page_boundaries() {
        let mut store = MemStore::new();
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        store.append(&bytes).expect("append");
        let mut pager = Pager::new(512, 4);
        for (offset, len) in [(0u64, 10u64), (500, 600), (1000, 2000), (4000, 96)] {
            let got = pager.read_span(&store, offset, len).expect("span");
            assert_eq!(got, bytes[offset as usize..(offset + len) as usize]);
        }
        assert!(pager.misses > 0);
        assert!(pager.resident_pages() <= 4);
    }

    #[test]
    fn eviction_keeps_residency_bounded() {
        let mut store = MemStore::new();
        store.append(&vec![7u8; 16 * 512]).expect("append");
        let mut pager = Pager::new(512, 2);
        for page in 0..16u64 {
            pager.read_span(&store, page * 512, 512).expect("span");
        }
        assert_eq!(pager.resident_pages(), 2);
        assert_eq!(pager.resident_bytes(), 2 * 512);
        assert_eq!(pager.evictions(), 14);
        assert_eq!(pager.misses, 16);
    }

    #[test]
    fn partial_frontier_pages_are_not_cached() {
        let mut store = MemStore::new();
        store.append(&vec![1u8; 700]).expect("append");
        let mut pager = Pager::new(512, 4);
        pager.read_span(&store, 512, 188).expect("span");
        assert_eq!(pager.resident_pages(), 0, "short page must not be cached");
        // After more bytes land the same page serves the longer span.
        store.append(&vec![2u8; 324]).expect("append");
        let got = pager.read_span(&store, 512, 512).expect("span");
        assert_eq!(got[0..188], vec![1u8; 188]);
        assert_eq!(got[188..], vec![2u8; 324]);
        assert_eq!(pager.resident_pages(), 1);
    }
}
