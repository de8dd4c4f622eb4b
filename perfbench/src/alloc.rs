//! A counting global allocator: the benchmark's source of truth for
//! live heap bytes.
//!
//! Every allocation, reallocation and free adjusts a signed counter,
//! so `live()` is exactly the number of bytes the process holds from
//! the system allocator at that instant. The counter is striped over
//! cache lines by the caller's stack address (threads live on
//! separate stacks), so shard workers, session threads and generator
//! threads do not contend on one atomic word.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

const STRIPES: usize = 64;

#[repr(align(64))]
struct Stripe(AtomicIsize);

static LIVE: [Stripe; STRIPES] = [const { Stripe(AtomicIsize::new(0)) }; STRIPES];

#[inline]
fn stripe() -> &'static AtomicIsize {
    let marker = 0u8;
    let addr = std::ptr::addr_of!(marker) as usize;
    &LIVE[(addr >> 21) % STRIPES].0
}

/// Bytes currently allocated by the whole process.
pub fn live() -> i64 {
    LIVE.iter()
        .map(|s| s.0.load(Ordering::Relaxed) as i64)
        .sum()
}

/// The system allocator plus live-byte accounting.
pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            stripe().fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            stripe().fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        stripe().fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            stripe().fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        out
    }
}
