//! Lightweight span timers: measure a scope's wall-clock duration and
//! feed it into a [`Histogram`] on drop.

use crate::registry::Histogram;
use std::time::Instant;

/// An RAII guard that observes its own lifetime (in seconds) into a
/// histogram when dropped. Create one with [`SpanTimer::new`] or the
/// [`crate::span!`] macro.
///
/// The timer borrows its histogram rather than cloning the handle, so
/// starting and ending a span touches no reference count.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts timing into `hist`.
    pub fn new(hist: &'a Histogram) -> SpanTimer<'a> {
        SpanTimer {
            hist,
            start: Instant::now(),
        }
    }

    /// Seconds elapsed so far (mainly for tests).
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_secs_f64());
    }
}

/// Times the rest of the enclosing scope into a histogram handle:
///
/// ```
/// let registry = nodeshare_obs::MetricsRegistry::new();
/// let hist = registry.histogram("scan_seconds", "scan time", &[1e-6, 1e-3, 1.0]);
/// {
///     let _span = nodeshare_obs::span!(hist);
///     // ... timed work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($hist:expr) => {
        $crate::span::SpanTimer::new(&$hist)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn span_observes_on_drop() {
        let r = MetricsRegistry::new();
        let h = r.histogram("work_seconds", "work", &[0.5, 1.0]);
        {
            let _s = SpanTimer::new(&h);
            assert_eq!(h.count(), 0, "observation happens at drop, not start");
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
        {
            let _s = crate::span!(h);
        }
        assert_eq!(h.count(), 2);
    }
}
