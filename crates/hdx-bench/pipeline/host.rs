//! Host-speed scaling.
//!
//! The benchmark runs on shared machines whose speed drifts: on a shared
//! 2-vCPU VM a fit ran anywhere from its quiet time to 2.5x slower, in
//! stretches of tens of seconds to minutes, so whole runs fell in slow
//! stretches and no statistic of a run's operations escaped them. A fixed
//! reference task, timed between the measured intervals on the same input,
//! reads the host's current speed, and every time a run reports is scaled
//! to the reference speed:
//!
//! ```text
//! scaled = wall × (1 − r + r × speed)
//!     r     = the calling thread's CPU time ÷ wall time, at most 1
//!     speed = the task's time on the reference host ÷ its time now
//! ```
//!
//! Time the calling thread spends running code slows with the host and is
//! scaled; time it spends waiting (on a sleep, an fsync, another thread) is
//! reported as measured. An interval's speed is the mean of the speeds read
//! just before and just after it.
//!
//! A slow stretch does not slow all code alike: on that VM a CSV scan
//! slowed by up to 44% while a WAL open beside it slowed by 15%. So each
//! workload reads the speed with the [`Task`] whose work is most like its
//! operation's, over the same bytes the operation reads, so it also sees
//! the same cache footprint. The reference speed is a constant per
//! workload (ns per input byte), and the tasks are fixed code of this
//! benchmark, so a change to the code under test moves the scaled times
//! and nothing else does.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The share of a run's time spent on reference runs between operations.
const REFERENCE_SHARE: f64 = 0.1;

/// A fixed task that reads the host's speed.
#[derive(Debug, Clone, Copy)]
pub enum Task {
    /// [`scan`]: the kind of work a fit's CSV parser does.
    Scan,
    /// [`crc32`]: the kind of work opening a WAL does, which checksums
    /// every frame.
    Crc,
}

impl Task {
    fn run(self, input: &str) -> u64 {
        match self {
            Task::Scan => scan(input),
            Task::Crc => u64::from(crc32(input.as_bytes())),
        }
    }
}

/// A workload's reference: the task, and the speed in ns per input byte
/// at which it runs on the reference host.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub task: Task,
    pub ns_per_byte: f64,
}

/// Splits CSV text into fields, parsing each as a number or hashing it as
/// a label. Returns a checksum so the work stays.
pub fn scan(csv: &str) -> u64 {
    let mut acc = 0u64;
    for line in csv.lines() {
        for field in line.split(',') {
            acc = match field.parse::<f64>() {
                Ok(v) => acc.wrapping_add(v.to_bits()),
                Err(_) => field.bytes().fold(acc, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                }),
            };
        }
    }
    acc
}

/// CRC-32 (IEEE), a byte at a time through a 256-entry table.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in (0u32..).zip(table.iter_mut()) {
            *entry = (0..8).fold(i, |c, _| {
                if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            });
        }
        table
    });
    !bytes.iter().fold(u32::MAX, |crc, &b| {
        (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize]
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("bench_pipeline reads the thread CPU clock of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used.
fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of this
    // target, and `clock_gettime` writes only through the pointer it gets.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable on Linux");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is not negative");
    let nanos = u32::try_from(ts.tv_nsec).expect("tv_nsec is below 1e9");
    Duration::new(secs, nanos)
}

/// One measured interval, in ms.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_ms: f64,
    /// The wall time at the reference speed.
    pub scaled_ms: f64,
    /// The host speed around it (1 = the reference speed).
    pub speed: f64,
}

/// Times intervals and the reference runs that scale them.
pub struct Meter {
    reference: Reference,
    started: Instant,
    referencing: Duration,
    /// The speed the last reference run read.
    last: Option<f64>,
    /// Wall and CPU time of intervals awaiting a reading.
    pending: Vec<(Duration, Duration)>,
    timed: Vec<Timed>,
}

impl Meter {
    pub fn new(reference: Reference) -> Self {
        Self {
            reference,
            started: Instant::now(),
            referencing: Duration::ZERO,
            last: None,
            pending: Vec::new(),
            timed: Vec::new(),
        }
    }

    /// Runs `f` as one measured interval.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (wall, cpu) = (Instant::now(), thread_cpu());
        let out = f();
        self.pending
            .push((wall.elapsed(), thread_cpu().saturating_sub(cpu)));
        out
    }

    /// Reads the host's speed by running the reference task on `input`,
    /// and scales the intervals timed since the last reading.
    pub fn calibrate(&mut self, input: &str) {
        let t = Instant::now();
        black_box(self.reference.task.run(black_box(input)));
        let took = t.elapsed();
        self.referencing += took;
        let now = self.reference.ns_per_byte * input.len() as f64 / (took.as_secs_f64() * 1e9);
        let speed = self.last.map_or(now, |before| (before + now) / 2.0);
        self.last = Some(now);
        for (wall, cpu) in self.pending.drain(..) {
            let r = (cpu.as_secs_f64() / wall.as_secs_f64()).min(1.0);
            let wall_ms = wall.as_secs_f64() * 1e3;
            self.timed.push(Timed {
                wall_ms,
                scaled_ms: wall_ms * (1.0 - r + r * speed),
                speed,
            });
        }
    }

    /// [`Meter::calibrate`] when the reference runs so far took less than
    /// their share of the time since the meter started.
    pub fn calibrate_if_due(&mut self, input: &str) {
        if self.referencing.as_secs_f64() < REFERENCE_SHARE * self.started.elapsed().as_secs_f64() {
            self.calibrate(input);
        }
    }

    /// The intervals scaled so far.
    pub fn timed(&self) -> &[Timed] {
        &self.timed
    }

    /// Every interval, scaled (a last reading on `input` covers the rest).
    pub fn finish(mut self, input: &str) -> Vec<Timed> {
        if !self.pending.is_empty() {
            self.calibrate(input);
        }
        self.timed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_counts_running_not_sleeping() {
        let before = thread_cpu();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu() - before;
        let before = thread_cpu();
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            black_box(scan("1,2.5,a\n"));
        }
        let spun = thread_cpu() - before;
        assert!(slept < Duration::from_millis(10), "slept {slept:?}");
        assert!(spun > slept, "spun {spun:?}, slept {slept:?}");
    }

    const REFERENCE: Reference = Reference {
        task: Task::Scan,
        ns_per_byte: 1.0,
    };

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn waiting_is_not_scaled() {
        let mut meter = Meter::new(REFERENCE);
        meter.time(|| std::thread::sleep(Duration::from_millis(20)));
        meter.calibrate("a,1\nb,2\n");
        let [timed] = meter.finish("")[..] else {
            panic!("one interval");
        };
        assert!(timed.speed > 0.0 && timed.speed.is_finite());
        assert!(
            (timed.scaled_ms / timed.wall_ms - 1.0).abs() < 0.2,
            "{timed:?}"
        );
    }

    #[test]
    fn every_interval_is_scaled_once() {
        let mut meter = Meter::new(REFERENCE);
        for _ in 0..3 {
            meter.time(|| black_box(scan("x,1\n")));
        }
        meter.calibrate("x,1\n");
        meter.time(|| ());
        assert_eq!(meter.finish("x,1\n").len(), 4);
    }
}
