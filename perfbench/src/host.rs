//! Host diagnostics: how long a phase ran, how much of it the thread was
//! on a CPU, and how long it waited in the run queue, from the thread's
//! own scheduler statistics (`/proc/thread-self/schedstat`, Linux). A
//! phase that ran slow with near-zero run-queue wait was slowed by the
//! shared machine (memory bandwidth, caches), not by the scheduler.

use std::time::Instant;

/// The calling thread's cumulative scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl SchedStat {
    /// Reads the counters; `None` where the kernel does not expose them.
    pub fn read() -> Option<SchedStat> {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        let on_cpu_ns = fields.next()?.ok()?;
        let wait_ns = fields.next()?.ok()?;
        Some(SchedStat { on_cpu_ns, wait_ns })
    }
}

/// Wall time and scheduler deltas of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Wall seconds.
    pub wall_s: f64,
    /// Seconds on a CPU (0 when unavailable).
    pub on_cpu_s: f64,
    /// Seconds waiting in the run queue (0 when unavailable).
    pub wait_s: f64,
}

/// Measures one phase from [`PhaseClock::start`] to [`PhaseClock::stop`].
pub struct PhaseClock {
    t0: Instant,
    s0: Option<SchedStat>,
}

impl PhaseClock {
    /// Starts measuring.
    pub fn start() -> Self {
        PhaseClock { t0: Instant::now(), s0: SchedStat::read() }
    }

    /// Wall seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Stops measuring and returns the phase's figures.
    pub fn stop(&self) -> PhaseStat {
        let wall_s = self.elapsed_s();
        let (on_cpu_s, wait_s) = match (self.s0, SchedStat::read()) {
            (Some(a), Some(b)) => (
                b.on_cpu_ns.saturating_sub(a.on_cpu_ns) as f64 / 1e9,
                b.wait_ns.saturating_sub(a.wait_ns) as f64 / 1e9,
            ),
            _ => (0.0, 0.0),
        };
        PhaseStat { wall_s, on_cpu_s, wait_s }
    }
}
