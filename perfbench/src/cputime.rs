//! CPU time of the calling thread and of the whole process.
//!
//! The benchmark times host work in CPU time, not wall time. On a shared
//! virtual machine the hypervisor takes the vCPU away for spells of
//! milliseconds to seconds; wall time counts those spells and CPU time
//! does not (the guest kernel leaves steal time out of a task's run
//! time). On a 2-vCPU Xeon VM the pass-to-pass spread of `fig14-bare`
//! fell from 0.099 (wall) to 0.041 (CPU) as the interquartile range over
//! the median, and its worst pass from 1.43x the median to 1.08x.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux), and both clock ids are defined there.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used so far.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of the process, live or ended, has used so far.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps the calling thread busy until it has used `d` of CPU time.
    fn spin(d: Duration) -> Duration {
        let start = thread();
        while thread() - start < d {
            std::hint::spin_loop();
        }
        thread() - start
    }

    #[test]
    fn busy_time_counts_and_sleep_does_not() {
        let p0 = process();
        let busy = spin(Duration::from_millis(20));
        let t1 = thread();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread() - t1 < Duration::from_millis(10));
        std::thread::spawn(|| spin(Duration::from_millis(20)))
            .join()
            .unwrap();
        assert!(process() - p0 >= busy + Duration::from_millis(20));
    }
}
