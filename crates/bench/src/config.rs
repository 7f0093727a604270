//! Experiment sizing, overridable from the environment and the command
//! line.

use conair_runtime::MachineConfig;

/// Trial counts for the experiment binaries.
///
/// Defaults are sized for minutes-scale reruns of the full suite; the paper
/// used 1000 recovery trials and 20 overhead runs per program — set
/// `CONAIR_TRIALS=1000` / `CONAIR_OVERHEAD_TRIALS=20` to match.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Recovery trials per (workload, mode).
    pub trials: usize,
    /// Seed-paired runs for overhead measurement.
    pub overhead_trials: usize,
    /// First scheduler seed.
    pub seed0: u64,
    /// Worker threads for trial fan-out (`run_trials`, clamped to the
    /// host's available parallelism). `1` keeps everything on the calling
    /// thread. Results are merged in seed order, so any job count produces
    /// the same numbers.
    pub jobs: usize,
    /// Pinned nanoseconds-per-step conversion for the time columns. When
    /// unset, each experiment derives it from its own wall clock — fine for
    /// a single report, but nondeterministic across runs; pin it (e.g.
    /// `CONAIR_NS_PER_STEP=25`) to make reports byte-identical across
    /// reruns and `--jobs` settings.
    pub ns_per_step: Option<f64>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            trials: 50,
            overhead_trials: 5,
            seed0: 1,
            jobs: 1,
            ns_per_step: None,
        }
    }
}

impl BenchConfig {
    /// Reads overrides from `CONAIR_TRIALS`, `CONAIR_OVERHEAD_TRIALS`,
    /// `CONAIR_SEED`, `CONAIR_JOBS`, and `CONAIR_NS_PER_STEP`.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(v) = env_usize("CONAIR_TRIALS") {
            cfg.trials = v.max(1);
        }
        if let Some(v) = env_usize("CONAIR_OVERHEAD_TRIALS") {
            cfg.overhead_trials = v.max(1);
        }
        if let Some(v) = env_usize("CONAIR_SEED") {
            cfg.seed0 = v as u64;
        }
        if let Some(v) = env_usize("CONAIR_JOBS") {
            cfg.jobs = v.max(1);
        }
        if let Ok(v) = std::env::var("CONAIR_NS_PER_STEP") {
            if let Ok(ns) = v.parse::<f64>() {
                if ns > 0.0 {
                    cfg.ns_per_step = Some(ns);
                }
            }
        }
        cfg
    }

    /// Applies command-line overrides: `--jobs N` and `--trials N` (both
    /// also accepted as `--jobs=N`). Unknown arguments are ignored so the
    /// binaries stay forgiving about extra flags.
    pub fn apply_cli_args<I: IntoIterator<Item = String>>(&mut self, args: I) {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut take = |key: &str| -> Option<usize> {
                if let Some(rest) = arg.strip_prefix(&format!("{key}=")) {
                    rest.parse().ok()
                } else if arg == key {
                    args.next().and_then(|v| v.parse().ok())
                } else {
                    None
                }
            };
            if let Some(n) = take("--jobs") {
                self.jobs = n.max(1);
            } else if let Some(n) = take("--trials") {
                self.trials = n.max(1);
            }
        }
    }

    /// The machine configuration used by every experiment.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig {
            lock_timeout: 200,
            step_limit: 50_000_000,
            ..MachineConfig::default()
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BenchConfig::default();
        assert!(c.trials >= 1);
        assert!(c.overhead_trials >= 1);
        assert_eq!(c.jobs, 1);
        assert!(c.ns_per_step.is_none());
        assert!(c.machine().step_limit > 1_000_000);
    }

    #[test]
    fn cli_args_override_jobs_and_trials() {
        let mut c = BenchConfig::default();
        c.apply_cli_args(["--jobs", "4", "--trials=200"].map(String::from));
        assert_eq!(c.jobs, 4);
        assert_eq!(c.trials, 200);

        let mut c = BenchConfig::default();
        c.apply_cli_args(["--jobs=0", "--unknown", "x"].map(String::from));
        assert_eq!(c.jobs, 1, "jobs clamps to at least 1");
    }
}
