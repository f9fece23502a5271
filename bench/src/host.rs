//! Host control: which CPUs the run may use.

use std::sync::OnceLock;

/// Hardware threads the host offered when first asked — before the
/// pin, after which the process sees one.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

#[cfg(target_os = "linux")]
mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU set (CPUs 0–63), if the host tells.
    pub fn get() -> Option<u64> {
        let mut mask = 0u64;
        // SAFETY: `mask` is a live 8-byte CPU set and `cpusetsize` is
        // exactly its size; pid 0 names the calling thread. The call
        // writes at most those 8 bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
        (rc == 0 && mask != 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`; `false` when refused.
    pub fn set(mask: u64) -> bool {
        // SAFETY: as in `get`; the call only reads the 8-byte set.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn get() -> Option<u64> {
        None
    }

    pub fn set(_mask: u64) -> bool {
        false
    }
}

/// The CPU set the process started with and the one CPU of it that
/// [`pin_to_one_cpu`] pins to, once it has been asked.
static PINNED: OnceLock<(u64, u64)> = OnceLock::new();

/// Pins the calling thread — and every thread spawned from it
/// afterwards, which is every engine worker and MPC party — to the
/// highest CPU it may use. Returns `false` when the host refused (the
/// run then proceeds unpinned and says so).
///
/// Why: on the 2-vCPU sandbox a wake-up that crosses cores costs ten
/// times one that does not, and which of the two a thread pair gets is
/// the scheduler's choice of the hour. Unpinned, `query_qps` read
/// 20 k/s or 250 k/s from one run to the next, and two sets of ten
/// runs half an hour apart put the threaded backend's `refresh_ms` at
/// 8.7 and 3.9 ms, its `recover_ms` at 68 and 29 ms. On one CPU every
/// hand-off is the same-core kind. The price: the gated numbers show
/// no parallel speed-up; [`on_all_cpus`] measures the `unpinned.*`
/// rows of the per-layer table for that.
pub fn pin_to_one_cpu() -> bool {
    let one = match PINNED.get() {
        Some(&(_, one)) => one,
        None => {
            let Some(all) = affinity::get() else {
                return false;
            };
            PINNED
                .get_or_init(|| (all, 1 << (63 - all.leading_zeros())))
                .1
        }
    };
    affinity::set(one)
}

/// Runs `f` with the calling thread allowed on every CPU the process
/// started with, then pins it again. Threads `f` spawns inherit the
/// wide set and keep it. Without a pin in force, just runs `f`.
pub fn on_all_cpus<T>(f: impl FnOnce() -> T) -> T {
    let Some(&(all, one)) = PINNED.get() else {
        return f();
    };
    affinity::set(all);
    let out = f();
    affinity::set(one);
    out
}
