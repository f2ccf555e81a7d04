//! Spans the benchmark records around its own calls into each layer.
//!
//! A span is kept as a per-name count and total duration, in memory,
//! and the totals are written to stderr when the run ends. When
//! tracing is off, [`Spans::time`] calls straight through without
//! reading the clock, so untraced runs pay nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Count and total duration of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, seconds.
    pub secs: f64,
}

/// In-memory span totals by layer name.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, SpanTotal>,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            totals: BTreeMap::new(),
        }
    }

    /// Adds one span of `secs` under `name`.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        if self.enabled {
            let t = self.totals.entry(name).or_default();
            t.count += 1;
            t.secs += secs;
        }
    }

    /// Runs `f`, recording its duration under `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.record(name, started.elapsed().as_secs_f64());
        out
    }

    /// Totals of `name` (zero when never recorded).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes every total to stderr, one line per layer.
    pub fn write_out(&self) {
        for (name, t) in &self.totals {
            eprintln!(
                "span {name:<36} count {:>10}  total {:>12.6} s",
                t.count, t.secs
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("x", || 7), 7);
        s.record("x", 1.0);
        assert_eq!(s.total("x"), SpanTotal::default());
    }

    #[test]
    fn enabled_spans_sum_per_name() {
        let mut s = Spans::new(true);
        s.record("a", 0.5);
        s.record("a", 0.25);
        s.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert_eq!(
            s.total("a"),
            SpanTotal {
                count: 2,
                secs: 0.75
            }
        );
        assert_eq!(s.total("b").count, 1);
        assert!(s.total("b").secs >= 0.002);
    }
}
