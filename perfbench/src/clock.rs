//! The host clock the harness times with: CPU time of the calling thread,
//! and a reference kernel that tracks how fast the host runs right now.
//!
//! The simulator is single-threaded, so its work is exactly the thread's
//! CPU time. Unlike wall time, that does not count the time the host
//! scheduler gives to other processes. It does count the cycles lost to
//! other tenants of the same CPU package: on a shared machine their use of
//! the caches and memory makes the same work take 30–60 % more CPU time
//! from one minute to the next. The reference kernel — random
//! read-modify-writes over a table that fits L2 and over one that does
//! not — slows down with them. [`tick`] runs it at a fixed interval of
//! measured host time; [`Speed`] turns the samples taken over a run into a
//! factor that scales the run's CPU seconds to the host speed the kernel
//! was calibrated at. The kernel touches only its own tables, allocated
//! once, so a change to the program does not change its work.
//!
//! Time spent in the kernel is left out of every [`Cpu`] reading, so no
//! measured span includes it.

use std::cell::RefCell;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The calling thread's CPU time, reference kernels included.
fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this crate builds for) and
    // CLOCK_THREAD_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A reading of the calling thread's CPU clock, not counting the time the
/// thread spent in the reference kernel.
#[derive(Debug, Clone, Copy)]
pub struct Cpu(Duration);

impl Cpu {
    /// The thread's CPU time so far.
    pub fn now() -> Cpu {
        let spent = REFERENCE.with(|r| r.borrow().spent);
        Cpu(thread_cpu().saturating_sub(spent))
    }

    /// CPU time since this reading.
    pub fn elapsed(&self) -> Duration {
        Cpu::now().0.saturating_sub(self.0)
    }
}

/// The reference tables, in `u64` entries (powers of two): 1 MiB, which
/// fits L2, and 8 MiB, which does not, on the machine the benchmark was
/// tuned on.
const TABLES: [usize; 2] = [1 << 17, 1 << 20];
/// Read-modify-writes per kernel run in each table; about equal times.
const KERNEL_OPS: [usize; 2] = [256_000, 64_000];
/// CPU seconds one kernel run takes at the calibrated host speed (the
/// median on a 2-vCPU Xeon, Sapphire Rapids, 2 MiB L2 per core, 105 MiB
/// L3, shared with other tenants).
const KERNEL_NOMINAL_S: f64 = 0.0027;
/// Measured host time between two kernel runs.
const TICK_EVERY: Duration = Duration::from_millis(50);

struct Reference {
    tables: [Vec<u64>; 2],
    x: u64,
    /// Host time measured since the last kernel run.
    pending: Duration,
    /// CPU time spent in the kernel so far.
    spent: Duration,
    /// Kernel CPU seconds since the last [`Speed::start`].
    samples: Vec<f64>,
}

thread_local! {
    static REFERENCE: RefCell<Reference> = const {
        RefCell::new(Reference {
            tables: [Vec::new(), Vec::new()],
            x: 0x9E37_79B9_7F4A_7C15,
            pending: Duration::ZERO,
            spent: Duration::ZERO,
            samples: Vec::new(),
        })
    };
}

/// Runs the reference kernel once and records its CPU time as a sample.
fn sample() {
    REFERENCE.with(|r| {
        let r = &mut *r.borrow_mut();
        let t0 = thread_cpu();
        if r.tables[0].is_empty() {
            r.tables = TABLES.map(|len| (0..len as u64).collect());
        }
        let before = thread_cpu();
        let mut x = r.x;
        for (table, ops) in r.tables.iter_mut().zip(KERNEL_OPS) {
            let mask = table.len() - 1;
            for _ in 0..ops {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x as usize & mask;
                table[k] = table[k].wrapping_mul(31).wrapping_add(x);
            }
        }
        r.x = x;
        let after = thread_cpu();
        r.samples.push((after - before).as_secs_f64());
        r.spent += after - t0;
        r.pending = Duration::ZERO;
    });
}

/// Counts `measured` host time and runs the reference kernel whenever
/// [`TICK_EVERY`] of it has gone by since the last run.
pub fn tick(measured: Duration) {
    let due = REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        r.pending += measured;
        r.pending >= TICK_EVERY
    });
    if due {
        sample();
    }
}

/// The host speed over a span of work: reference samples from its start
/// to its end.
#[derive(Debug)]
pub struct Speed(());

impl Speed {
    /// Starts a span: drops earlier samples and takes one.
    pub fn start() -> Speed {
        REFERENCE.with(|r| r.borrow_mut().samples.clear());
        sample();
        Speed(())
    }

    /// Ends the span with one more sample. Returns the factor that scales
    /// CPU seconds measured in the span to the calibrated host speed (the
    /// nominal kernel time over the median sample; below 1 when the host
    /// ran slow), and the number of samples it rests on.
    pub fn stop(self) -> (f64, usize) {
        sample();
        REFERENCE.with(|r| {
            let r = r.borrow();
            let median = crate::stats::median(&r.samples).expect("two samples at least");
            (KERNEL_NOMINAL_S / median, r.samples.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t = Cpu::now();
        busy();
        assert!(t.elapsed() > Duration::ZERO);
    }

    #[test]
    fn reference_kernel_time_is_left_out_of_readings() {
        let speed = Speed::start();
        let t = Cpu::now();
        let raw = thread_cpu();
        for _ in 0..20 {
            tick(TICK_EVERY);
        }
        let kernel = thread_cpu() - raw;
        assert!(t.elapsed() < kernel / 4, "kernel time leaked into Cpu");
        let (factor, n) = speed.stop();
        assert_eq!(n, 22);
        assert!(factor.is_finite() && factor > 0.0);
    }
}
