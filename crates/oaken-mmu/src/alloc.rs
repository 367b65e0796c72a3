//! Physical page allocator over the device memory's pages.

use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The device memory has no free pages left (the OOM condition of
    /// Figures 4/11/13).
    OutOfPages {
        /// Total pages in the device.
        capacity: u32,
    },
    /// A page was released past its last reference or never allocated.
    NotAllocated {
        /// The offending page.
        page: PageId,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfPages { capacity } => {
                write!(f, "out of memory: all {capacity} pages allocated")
            }
            AllocError::NotAllocated { page } => {
                write!(f, "page {page:?} is not currently allocated")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// A first-fit (lowest-id-first) physical page allocator with per-page
/// reference counts.
///
/// Lowest-id-first keeps page assignment a function of the operation
/// order alone, so it is reproducible run to run. Reference counting is what makes prefix sharing possible one layer up: a page
/// holding a shared prompt's quantized rows is [retained](Self::retain)
/// once per sharer and only returns to the free set when the last sharer
/// [releases](Self::release) it.
#[derive(Debug, Clone)]
pub struct PageAllocator {
    page_size: usize,
    num_pages: u32,
    free: BTreeSet<PageId>,
    /// Reference count per page (0 = free).
    refs: Vec<u32>,
}

impl PageAllocator {
    /// Creates an allocator over `num_pages` pages of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(num_pages: u32, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            num_pages,
            free: (0..num_pages).map(PageId).collect(),
            refs: vec![0; num_pages as usize],
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total pages.
    pub fn capacity(&self) -> u32 {
        self.num_pages
    }

    /// Currently free pages.
    pub fn free_pages(&self) -> u32 {
        self.free.len() as u32
    }

    /// Currently allocated pages.
    pub fn allocated_pages(&self) -> u32 {
        self.num_pages - self.free_pages()
    }

    /// Current reference count of a page (0 = free).
    pub fn refcount(&self, page: PageId) -> u32 {
        self.refs.get(page.0 as usize).copied().unwrap_or(0)
    }

    /// Allocates the lowest-numbered free page with a reference count of 1.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfPages`] when the device is full.
    pub fn alloc(&mut self) -> Result<PageId, AllocError> {
        let page = *self.free.iter().next().ok_or(AllocError::OutOfPages {
            capacity: self.num_pages,
        })?;
        self.free.remove(&page);
        self.refs[page.0 as usize] = 1;
        Ok(page)
    }

    /// Adds a reference to an allocated page (a new sharer of its
    /// payload). Returns the new reference count.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] for a free or invalid page.
    pub fn retain(&mut self, page: PageId) -> Result<u32, AllocError> {
        if self.refcount(page) == 0 {
            return Err(AllocError::NotAllocated { page });
        }
        let rc = &mut self.refs[page.0 as usize];
        *rc += 1;
        Ok(*rc)
    }

    /// Drops one reference to a page, returning it to the free set when
    /// the last reference goes. Returns `true` when the page was freed.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] on over-release or an invalid
    /// id.
    pub fn release(&mut self, page: PageId) -> Result<bool, AllocError> {
        if self.refcount(page) == 0 {
            return Err(AllocError::NotAllocated { page });
        }
        let rc = &mut self.refs[page.0 as usize];
        *rc -= 1;
        let freed = *rc == 0;
        if freed {
            self.free.insert(page);
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_lowest_first() {
        let mut a = PageAllocator::new(4, 4096);
        assert_eq!(a.alloc().unwrap(), PageId(0));
        assert_eq!(a.alloc().unwrap(), PageId(1));
        assert_eq!(a.free_pages(), 2);
    }

    #[test]
    fn exhaustion_is_oom() {
        let mut a = PageAllocator::new(2, 64);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(AllocError::OutOfPages { capacity: 2 }));
    }

    #[test]
    fn freed_pages_are_reused() {
        let mut a = PageAllocator::new(2, 64);
        let p0 = a.alloc().unwrap();
        let _p1 = a.alloc().unwrap();
        assert!(a.release(p0).unwrap());
        assert_eq!(a.alloc().unwrap(), p0);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = PageAllocator::new(2, 64);
        let p = a.alloc().unwrap();
        assert!(a.release(p).unwrap());
        assert!(matches!(a.release(p), Err(AllocError::NotAllocated { .. })));
        assert!(matches!(
            a.release(PageId(9)),
            Err(AllocError::NotAllocated { .. })
        ));
    }

    #[test]
    fn retained_pages_survive_release_until_last_owner() {
        let mut a = PageAllocator::new(4, 64);
        let p = a.alloc().unwrap();
        assert_eq!(a.refcount(p), 1);
        assert_eq!(a.retain(p).unwrap(), 2);
        assert_eq!(a.retain(p).unwrap(), 3);
        assert!(!a.release(p).unwrap());
        assert!(!a.release(p).unwrap());
        assert_eq!((a.refcount(p), a.allocated_pages()), (1, 1));
        assert!(a.release(p).unwrap());
        assert_eq!(a.free_pages(), 4);
        assert!(matches!(a.release(p), Err(AllocError::NotAllocated { .. })));
    }

    #[test]
    fn retain_rejects_free_pages() {
        let mut a = PageAllocator::new(2, 64);
        assert!(matches!(
            a.retain(PageId(0)),
            Err(AllocError::NotAllocated { .. })
        ));
        assert!(matches!(
            a.retain(PageId(9)),
            Err(AllocError::NotAllocated { .. })
        ));
    }
}
