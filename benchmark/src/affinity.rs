//! The whole benchmark — generator, router and, by inheritance, both
//! `serve-shard` children — is pinned to **one CPU**.
//!
//! The issue asks for two members working in parallel on a 2-CPU host.
//! On the 2-vCPU sandbox this benchmark has to run on, a wake-up that
//! crosses vCPUs costs 50–150 µs of hypervisor time and varies by a
//! factor of two from run to run. `rec_wire`, ten runs each, raw values
//! (`README.md` has the table): unpinned 0.212 ms per recommend with a
//! run-to-run spread of 28 %; each member pinned to its own CPU
//! 0.115 ms, 33 %; everything on one CPU 0.043 ms, 2 %. The driver
//! refuses a benchmark whose spread exceeds its bound, and no bound it
//! allows (≤ 0.25) covers the first two. What pinning gives up: members
//! never run at the same time, so parallel speed-up across members
//! (`router.fanout_overlap` stays near 2 from queueing alone) is not
//! measured here. The work per operation is unchanged, so a change
//! that removes work shows as the same saving. A host with a core per
//! process would not need this; it is recorded as a known gap.

/// Pin the calling process to the highest-numbered CPU it is allowed to
/// run on (CPU 0 takes most interrupts and housekeeping). Children
/// started afterwards inherit the mask. A failure is reported and the
/// run goes on unpinned — noisier, not wrong.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the kernel's default cpu_set_t.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the kernel is told it may fill; pid 0 is this process.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        eprintln!("warning: cannot read the CPU mask; running unpinned");
        return;
    }
    let Some(cpu) = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes the kernel only
    // reads; it names a CPU the process was already allowed on.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        eprintln!("warning: cannot pin to CPU {cpu}; running unpinned");
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() {
    eprintln!("warning: CPU pinning is Linux-only; running unpinned");
}
