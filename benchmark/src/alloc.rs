//! The process's global allocator: the system allocator, plus a per-thread
//! count of the bytes held, so a check can measure what constructing one
//! object leaves allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Makes glibc keep freed memory in the process instead of returning it to
/// the kernel. Each SoC allocates hundreds of KiB of memory and simulator
/// caches; by default glibc maps such blocks fresh and unmaps or trims them
/// on free, so every construction pays first-touch page faults. On a
/// virtual machine their cost swings about twofold with the host's state,
/// which made `setup_s` jump between two levels from run to run. With
/// fixed thresholds, freed blocks are reused and the timings measure the
/// simulator's own work.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only changes malloc's tuning; it is called before
        // any other thread exists. A rejected value leaves the default.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    // Fails only while the thread is being torn down; nothing measures then.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a side table that never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `make` and returns its value with the bytes it left allocated on
/// this thread, which is what the value holds when `make` frees all its
/// scratch space.
pub fn live_bytes<T>(make: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let value = make();
    (value, LIVE.with(Cell::get) - before)
}
