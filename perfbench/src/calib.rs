//! Host-speed calibration.
//!
//! The host this benchmark was built on is a shared VM whose speed changes
//! by up to 1.8x within a second. A fixed kernel timed right before and
//! after a measurement shares its host speed; scaling the measurement by
//! the kernel's time converts it to the reference speed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The calibration kernel's time at the reference host speed, ms: about
/// its best time on a 2-vCPU Xeon host. A calibrated time is a wall time
/// scaled by this over the kernel's time around it.
const CALIB_REF_MS: f64 = 1.4;

/// The least time between two calibrations of a [`Clock`]. Operations
/// shorter than this share calibrations: a kernel between every two of
/// them would evict their caches and dominate their time.
const MIN_GAP: Duration = Duration::from_millis(20);

/// A fixed single-threaded calibration kernel, shaped like the program's
/// hot paths: a small bytecode loop (dispatch over a register file and a
/// 64 KiB memory), a sort of 16k pseudo-random words, and 3000 inserts of
/// freshly allocated strings into an ordered map. Its time measures the
/// host's speed at that moment; no library code runs in it, so no change to
/// the program can move it. Returns its wall time, ms.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let code: [u8; 8] = [0, 1, 2, 3, 4, 2, 1, 5];
    let mut regs = [1u64; 8];
    let mut mem = vec![0u64; 8192];
    for step in 0..250_000u64 {
        let r = (step % 7) as usize;
        match code[(step % 8) as usize] {
            0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) % 8]),
            1 => regs[r] = regs[r].wrapping_mul(0x9E37_79B9) | 1,
            2 => regs[r] ^= regs[r] >> 7,
            3 => mem[(regs[r] % 8192) as usize] = regs[(r + 2) % 8],
            4 => regs[r] = regs[r].wrapping_add(mem[(regs[(r + 3) % 8] % 8192) as usize]),
            _ => regs[r] = regs[r].rotate_left(9),
        }
    }
    let mut x = regs.iter().fold(0x9E37_79B9_7F4A_7C15u64, |a, r| a ^ r) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut words: Vec<u64> = (0..16_384).map(|_| next()).collect();
    words.sort_unstable();
    let mut map = BTreeMap::new();
    for _ in 0..3000 {
        let k = next();
        map.insert(k % 2048, format!("{k:x}"));
    }
    std::hint::black_box((words[words.len() / 2], mem[17], map.len()));
    t.elapsed().as_secs_f64() * 1e3
}

/// Times a sequence of operations against calibrations taken at operation
/// boundaries, at most one per [`MIN_GAP`]. Each operation is scaled to the
/// reference speed by the mean of the last calibration before it and the
/// first after it.
#[derive(Default)]
pub struct Clock {
    calibs: Vec<f64>,
    last: Option<Instant>,
    /// Each operation's wall time (ms) and the index of the calibration
    /// before it.
    ops: Vec<(f64, usize)>,
}

impl Clock {
    fn calibrate_now(&mut self) {
        self.calibs.push(calibrate());
        self.last = Some(Instant::now());
    }

    /// Runs `f` as one timed operation.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.last.is_none_or(|t| t.elapsed() >= MIN_GAP) {
            self.calibrate_now();
        }
        let before = self.calibs.len() - 1;
        let t = Instant::now();
        let out = f();
        self.ops.push((t.elapsed().as_secs_f64() * 1e3, before));
        out
    }

    /// Takes the closing calibration. Returns each operation's wall time
    /// and its time at the reference speed (ms), and every calibration
    /// (ms).
    pub fn finish(mut self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        self.calibrate_now();
        let wall = self.ops.iter().map(|&(ms, _)| ms).collect();
        let reference = self
            .ops
            .iter()
            .map(|&(ms, i)| ms * CALIB_REF_MS * 2.0 / (self.calibs[i] + self.calibs[i + 1]))
            .collect();
        (wall, reference, self.calibs)
    }
}
