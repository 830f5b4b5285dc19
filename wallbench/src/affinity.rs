//! Pinning the calling thread to one CPU.
//!
//! On a shared host one vCPU can run much slower than the other for
//! minutes at a time (a busy neighbour on its hyperthread sibling). A
//! single-threaded workload stays on one vCPU and reads that vCPU's speed,
//! so `session-lookup` spreads its rounds over the CPUs it may use and
//! averages the per-CPU figures (see `e2e::run`).

/// The CPUs the calling thread may run on, lowest first; empty where
/// they cannot be read.
pub fn allowed() -> Vec<usize> {
    sys::get().map_or_else(Vec::new, |set| {
        (0..sys::CPUS)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Restrict the calling thread to `cpus`; false if the kernel refused.
pub fn set(cpus: &[usize]) -> bool {
    let mut set = [0u64; sys::CPUS / 64];
    for &c in cpus.iter().filter(|&&c| c < sys::CPUS) {
        set[c / 64] |= 1 << (c % 64);
    }
    sys::set(&set)
}

#[cfg(target_os = "linux")]
mod sys {
    /// Bits in the kernel's `cpu_set_t`.
    pub const CPUS: usize = 1024;
    type CpuSet = [u64; CPUS / 64];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = [0u64; CPUS / 64];
        // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a readable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const CPUS: usize = 1024;
    type CpuSet = [u64; CPUS / 64];

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}
