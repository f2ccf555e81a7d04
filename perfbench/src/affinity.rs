//! CPU affinity of the calling thread, through the C library's
//! `sched_getaffinity` / `sched_setaffinity` (Linux). Threads inherit
//! the affinity of the thread that spawns them.

use std::os::raw::{c_int, c_ulong};

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const WORDS: usize = 1024 / 64;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// The CPUs the calling thread may run on, ascending; empty when the
/// set cannot be read.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0 as c_ulong; WORDS];
    // SAFETY: pid 0 is the calling thread, and `mask` is a writable
    // buffer of exactly the size passed, alive for the whole call.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpu`. Returns whether it took.
pub fn pin(cpu: usize) -> bool {
    if cpu >= WORDS * 64 {
        return false;
    }
    let mut mask = [0 as c_ulong; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread, and `mask` is a readable
    // buffer of exactly the size passed, alive for the whole call.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_allowed_set() {
        // A spawned thread, so the test harness's own thread keeps its set.
        std::thread::spawn(|| {
            let before = allowed();
            assert!(!before.is_empty());
            assert!(pin(before[0]));
            assert_eq!(allowed(), vec![before[0]]);
            assert!(!pin(WORDS * 64));
        })
        .join()
        .expect("affinity thread");
    }
}
