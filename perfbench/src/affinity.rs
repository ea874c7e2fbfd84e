//! Rotating the measuring thread across the cores it may use.
//!
//! On the shared 2-vCPU Xeon VM the benchmark was tuned on, each vCPU goes
//! through slow spells (contention for the memory hierarchy from outside
//! the process) partly independently of the other: two copies of a
//! campaign loop pinned to the two vCPUs ran at 3.0-3.5 ms and 5.0-5.7 ms
//! side by side for seconds. A single-threaded run that stays on one core
//! for a whole spell reports only the spell. Plain runs of the
//! single-threaded workloads therefore move the thread to the next allowed
//! core at every state window, so the fast-state filter sees every core.

/// The calling thread's allowed cores, and rotation across them. Dropping
/// it restores the original affinity.
pub struct Rotation {
    #[cfg(target_os = "linux")]
    allowed: linux::CpuSet,
    cpus: Vec<usize>,
}

impl Rotation {
    /// The calling thread's rotation, or `None` when it may use fewer than
    /// two cores or the platform offers no affinity control.
    pub fn new() -> Option<Self> {
        #[cfg(target_os = "linux")]
        {
            let allowed = linux::get()?;
            let cpus = linux::cpus(&allowed);
            (cpus.len() > 1).then_some(Self { allowed, cpus })
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }

    /// Pin the calling thread to the `slot`-th allowed core, cyclically;
    /// returns the core, or `None` if pinning failed.
    pub fn pin(&self, slot: usize) -> Option<usize> {
        let cpu = *self.cpus.get(slot % self.cpus.len())?;
        #[cfg(target_os = "linux")]
        {
            linux::set(&linux::only(cpu)).then_some(cpu)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = cpu;
            None
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            let _ = linux::set(&self.allowed);
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use std::os::raw::c_int;

    /// glibc's `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread, and `set` is a live,
        // writable buffer of exactly `size_of::<CpuSet>()` bytes, which is
        // the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: pid 0 names the calling thread, and `set` points to
        // `size_of::<CpuSet>()` readable bytes, the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }

    pub fn cpus(set: &CpuSet) -> Vec<usize> {
        (0..set.len() * 64)
            .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_every_core_and_restores_affinity() {
        // Runs on its own test thread, so pinning it disturbs no other test.
        let Some(rotation) = Rotation::new() else {
            return;
        };
        let visited: Vec<Option<usize>> =
            (0..rotation.cpus.len()).map(|s| rotation.pin(s)).collect();
        assert!(visited.iter().all(Option::is_some));
        assert_eq!(
            visited.into_iter().flatten().collect::<Vec<_>>(),
            rotation.cpus
        );
        let cpus = rotation.cpus.clone();
        drop(rotation);
        let restored = Rotation::new().expect("the original affinity is back");
        assert_eq!(restored.cpus, cpus);
    }
}
