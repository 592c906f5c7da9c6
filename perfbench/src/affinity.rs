//! Pins the benchmark's busy threads to distinct CPUs.
//!
//! On the 2-vCPU virtual machines the benchmark targets, the guest
//! scheduler can keep two busy threads on one vCPU for tens of seconds
//! while the other vCPU idles, which halves every throughput figure of
//! the run.  Pinning each load thread, and each server worker, to its
//! own CPU takes that placement out of the measurement.  Threads the
//! program starts for itself are left alone.

#![allow(unsafe_code)]

use std::collections::BTreeSet;

/// The number of CPUs threads are spread over.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restricts thread `tid` (0 = the calling thread) to CPU `cpu`; false
/// when the kernel refused or the platform has no such call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_thread(tid: u64, cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(pid, len, mask) reads `len` bytes from
    // `mask`, which lives for the whole call; it writes no user memory.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") tid as i64,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_thread(_tid: u64, _cpu: usize) -> bool {
    false
}

/// Pins the calling thread, the `index`-th of a group, to its own CPU.
pub fn pin_current(index: usize) -> bool {
    pin_thread(0, index % cpus())
}

/// Pins this process's threads whose name is `name`, in the order they
/// were started, one CPU each; returns how many were pinned.
pub fn pin_named(name: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let tids: BTreeSet<u64> = tasks
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid = entry.file_name().to_str()?.parse::<u64>().ok()?;
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            (comm.trim_end() == name).then_some(tid)
        })
        .collect();
    tids.iter()
        .enumerate()
        .filter(|&(i, &tid)| pin_thread(tid, i % cpus()))
        .count()
}
