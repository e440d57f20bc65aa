//! Simulation tick conversions shared by the discrete-event layers.
//!
//! Event calendars (`multiboard`, the serving node and cluster, the
//! partition scenario) keep time in **integer picoseconds** (`u64`), the
//! way SST-style discrete-event frameworks and gem5 keep an integer tick
//! counter: event ordering is exact and `now` never moves backwards.
//! Durations arriving from the cost models in (f64) nanoseconds are
//! converted once, on ingest, via [`ps_from_ns`]; everything after that
//! is integer arithmetic, and [`ns_from_ps`] converts back for reporting.

/// Integer simulation ticks per nanosecond (the calendar runs in ps).
pub const PS_PER_NS: u64 = 1_000;

/// Convert a (possibly fractional) nanosecond duration from a cost model
/// into integer picosecond ticks, rounding to the nearest tick.
pub fn ps_from_ns(ns: f64) -> u64 {
    debug_assert!(ns >= 0.0, "durations must be non-negative");
    (ns * PS_PER_NS as f64).round() as u64
}

/// Convert integer picosecond ticks back to nanoseconds for reporting.
pub fn ns_from_ps(ps: u64) -> f64 {
    ps as f64 / PS_PER_NS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sub-tick fractions round to the nearest tick once, on ingest, so
    /// 10.0004 and 10.0006 ns stay distinct ticks; whole ticks convert
    /// back to nanoseconds exactly.
    #[test]
    fn fractional_ns_round_once_and_whole_ticks_invert_exactly() {
        assert_eq!(ps_from_ns(10.0004), 10_000);
        assert_eq!(ps_from_ns(10.0006), 10_001);
        for ps in [0, 1, 10_000, 10_001, 20_001, 123_456_789] {
            assert_eq!(ps_from_ns(ns_from_ps(ps)), ps);
        }
        assert_eq!(ns_from_ps(10_000), 10.0);
        assert_eq!(ns_from_ps(20_001), 20.001);
    }
}
