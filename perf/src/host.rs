//! What the benchmark needs from the host: CPU pinning, a fixed
//! calibration kernel that turns wall-clock into host-normalised time,
//! and the process facts (`VmHWM`, CPU time, load average) every result
//! carries.
//!
//! Why normalise at all: on the 2-core shared sandbox this was sized on,
//! the same pinned op reads 25–30% apart from one ten-second stretch to
//! the next (the CPU itself runs slower — process CPU time moves with
//! wall time), which no run length the benchmark can afford averages
//! out. A fixed kernel timed right beside each op moves with the host,
//! so timings are reported as
//! `raw × (REF_KERNEL_S ÷ kernel time measured beside the op)`.
//!
//! What the kernel is made of decides how well it tracks. Sized against
//! the three kinds of op in this benchmark (ratio of op time to kernel
//! time, medians of ten-op blocks over a drifting minute; raw spread
//! 12–30%): a single dependent load/multiply chain over L2 tracked worst
//! (10–13%); four independent branchy chains over L1 — interpreter-like
//! code — tracked the PEVPM evaluation best (8%); a two-thread channel
//! ping-pong tracked the `mpisim` hand-off workloads best (3–4%). The
//! kernel is therefore one pass of each, summed.

use std::hint::black_box;
use std::time::Instant;

/// The calibration kernel's reference time: what one [`kernel`] pass took
/// on the host this benchmark was sized on, in its faster state. Pinned,
/// never re-measured — every normalised timing is expressed on this
/// reference host's scale, so results from different hosts and different
/// minutes are comparable. `perf calibrate` prints this host's figure.
pub const REF_KERNEL_S: f64 = 6.0e-3;

/// Steps of each of the four chains in the compute pass.
const COMPUTE_STEPS: usize = 3 << 16;
/// Table the compute pass reads and writes: 512 words = 4 KiB, L1-resident.
const COMPUTE_WORDS: usize = 512;
/// Round trips in the hand-off pass.
const HANDOFF_ROUND_TRIPS: u32 = 1_000;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, ascending. Empty when the kernel
/// refuses the query (the caller then runs unpinned and says so).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if cpus.is_empty() {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pick the `want` highest-numbered allowed CPUs (CPU 0 takes the
/// host's interrupts, so it is used last) and pin to them. Returns the
/// CPU set actually in force; empty means unpinned.
pub fn pin_to_last(want: usize) -> Vec<usize> {
    let allowed = HOST_CPUS.get_or_init(allowed_cpus);
    let take = want.clamp(1, allowed.len().max(1));
    let chosen: Vec<usize> = allowed.iter().rev().take(take).rev().copied().collect();
    if pin_to(&chosen) {
        chosen
    } else {
        Vec::new()
    }
}

/// The CPU set the process had before [`pin_to_last`] narrowed it.
static HOST_CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();

/// Run `f` with the calling thread back on every CPU the process started
/// with — threads `f` spawns inherit that set — then restore the pinned
/// set. For the thread-scaling probes, which mean nothing on one CPU.
pub fn widened<R>(f: impl FnOnce() -> R) -> R {
    let narrow = allowed_cpus();
    let widened = HOST_CPUS.get().is_some_and(|wide| pin_to(wide));
    let r = f();
    if widened {
        pin_to(&narrow);
    }
    r
}

/// One pass of the calibration kernel: the compute pass plus the
/// hand-off pass. Returns the seconds it took. Fixed work.
///
/// The pass always runs on one CPU: a caller allowed on several (the
/// serve workloads' threads) is narrowed to the last of them for the
/// pass, so that the hand-off pass never measures cross-CPU wake-ups
/// (which cost ten times more, and vary more) and one reference time
/// fits every workload.
pub fn kernel() -> f64 {
    let cpus = allowed_cpus();
    let narrowed = cpus.len() > 1 && pin_to(&cpus[cpus.len() - 1..]);
    let secs = compute_pass() + handoff_pass();
    if narrowed {
        pin_to(&cpus);
    }
    secs
}

/// Four independent xorshift chains, each step a table access and a
/// data-dependent branch: instruction-level parallelism, unpredictable
/// branches and L1 traffic, like interpreter code.
fn compute_pass() -> f64 {
    let mut table = [0u64; COMPUTE_WORDS];
    let mut x = [
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ];
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..COMPUTE_STEPS {
        for chain in &mut x {
            let mut v = *chain;
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            *chain = v;
            let i = (v as usize) & (COMPUTE_WORDS - 1);
            if v & 0x100 != 0 {
                acc = acc.wrapping_add(table[i]);
            } else {
                table[i] = table[i].wrapping_add(v);
            }
        }
    }
    black_box((acc, table));
    start.elapsed().as_secs_f64()
}

/// Two threads passing a token back and forth over standard-library
/// channels: wake-ups and context switches, what a simulated MPI rank
/// hand-off or a socket round trip costs the host. The helper thread
/// inherits the caller's CPU set.
fn handoff_pass() -> f64 {
    use std::sync::mpsc::channel;
    let (to_helper, helper_rx) = channel::<u32>();
    let (to_caller, caller_rx) = channel::<u32>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(token) = helper_rx.recv() {
                if to_caller.send(token).is_err() {
                    break;
                }
            }
        });
        let round_trip = |token: u32| {
            to_helper.send(token).expect("helper thread is alive");
            black_box(caller_rx.recv().expect("helper thread is alive"));
        };
        round_trip(0); // helper is up and parked before the clock starts
        let start = Instant::now();
        for token in 0..HANDOFF_ROUND_TRIPS {
            round_trip(token);
        }
        let secs = start.elapsed().as_secs_f64();
        drop(to_helper); // hang up so the helper leaves its loop
        secs
    })
}

/// Host speed relative to the reference host, from one kernel time:
/// above 1 the host is faster than the reference.
pub fn speed_from_kernel(kernel_s: f64) -> f64 {
    REF_KERNEL_S / kernel_s.max(1e-9)
}

/// Express `raw_s`, measured while the kernel beside it took `kernel_s`,
/// on the reference host's scale.
pub fn normalise(raw_s: f64, kernel_s: f64) -> f64 {
    raw_s * speed_from_kernel(kernel_s)
}

/// A stopwatch that brackets each timed region with kernel passes. The
/// pass after one region doubles as the pass before the next, so a run
/// of back-to-back regions costs one kernel pass each.
pub struct Calibrated {
    last_kernel_s: f64,
    /// Every kernel time seen, for the `proc.host_speed` fact.
    pub kernels: Vec<f64>,
}

/// One calibrated measurement.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds as measured.
    pub raw_s: f64,
    /// Seconds on the reference host's scale.
    pub norm_s: f64,
}

impl Calibrated {
    /// Run the first kernel pass (twice: the first warms caches and the
    /// branch predictor).
    pub fn start() -> Self {
        kernel();
        let k = kernel();
        Calibrated {
            last_kernel_s: k,
            kernels: vec![k],
        }
    }

    /// Time `f` between two kernel passes and normalise by their mean.
    /// A long region made of several steps (a set-up) can call
    /// [`Laps::lap`] between them: each step is then normalised by the
    /// passes at its own two ends, and the kernel passes are left out of
    /// the total.
    pub fn time<R>(&mut self, f: impl FnOnce(&mut Laps<'_>) -> R) -> (R, Timed) {
        let mut laps = Laps {
            cal: self,
            start: Instant::now(),
            total: Timed {
                raw_s: 0.0,
                norm_s: 0.0,
            },
        };
        let r = f(&mut laps);
        laps.lap();
        (r, laps.total)
    }

    /// Re-run the leading kernel pass (after an untimed pause, so a stale
    /// reading does not bracket the next region).
    pub fn refresh(&mut self) {
        self.last_kernel_s = kernel();
        self.kernels.push(self.last_kernel_s);
    }

    /// Median host speed over every kernel pass so far.
    pub fn host_speed(&self) -> f64 {
        speed_from_kernel(crate::stats::median(&self.kernels).unwrap_or(REF_KERNEL_S))
    }
}

/// The region [`Calibrated::time`] is timing, open for splitting.
pub struct Laps<'a> {
    cal: &'a mut Calibrated,
    start: Instant,
    total: Timed,
}

impl Laps<'_> {
    /// End the current step here: run a kernel pass, add the step to the
    /// total normalised by the passes at its two ends, start the next.
    pub fn lap(&mut self) {
        let raw_s = self.start.elapsed().as_secs_f64();
        let before = self.cal.last_kernel_s;
        let after = kernel();
        self.cal.last_kernel_s = after;
        self.cal.kernels.push(after);
        self.total.raw_s += raw_s;
        self.total.norm_s += normalise(raw_s, (before + after) / 2.0);
        self.start = Instant::now();
    }
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1-minute load average, or 0 when `/proc/loadavg` is unreadable.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = [11usize, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<f64>().ok()))
        .sum();
    // SAFETY: sysconf takes an integer selector and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    ticks / if hz > 0 { hz as f64 } else { 100.0 }
}

/// First line of a command's standard output, or `"unknown"`.
pub fn command_line(program: &str, args: &[&str], envs: &[(&str, &str)]) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_scales_by_kernel_ratio() {
        // A host running the kernel in half the reference time is twice
        // as fast, so its raw second counts as two reference seconds.
        assert!((speed_from_kernel(REF_KERNEL_S / 2.0) - 2.0).abs() < 1e-12);
        assert!((normalise(1.0, REF_KERNEL_S / 2.0) - 2.0).abs() < 1e-12);
        // On the reference host nothing changes.
        assert!((normalise(0.25, REF_KERNEL_S) - 0.25).abs() < 1e-12);
        // The same work on a host 25% slower reads 25% longer raw and
        // normalises back to the same figure.
        let slow = normalise(1.25, REF_KERNEL_S * 1.25);
        assert!((slow - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibrated_brackets_with_the_mean_of_two_passes() {
        let mut c = Calibrated {
            last_kernel_s: REF_KERNEL_S,
            kernels: vec![REF_KERNEL_S],
        };
        let ((), t) = c.time(|_| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t.raw_s >= 2e-3);
        let after = *c.kernels.last().unwrap();
        let expect = normalise(t.raw_s, (REF_KERNEL_S + after) / 2.0);
        assert!((t.norm_s - expect).abs() < 1e-12);
        assert_eq!(c.kernels.len(), 2);
    }

    #[test]
    fn pinning_to_an_allowed_cpu_sticks() {
        let allowed = allowed_cpus();
        if allowed.is_empty() {
            return; // affinity not queryable here; nothing to check
        }
        // Run on a scratch thread so the test runner's thread keeps its mask.
        std::thread::spawn(move || {
            let last = *allowed.last().unwrap();
            assert!(pin_to(&[last]));
            assert_eq!(allowed_cpus(), vec![last]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn process_facts_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
