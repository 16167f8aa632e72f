//! Fixed-bin histograms for response-time distributions.
//!
//! Used by the simulation layer to sanity-check that empirical sojourn
//! times are exponential-shaped (the M/M/1 prediction) and by the examples
//! to print compact ASCII distributions.

/// A histogram with uniform bins over `[low, high)` plus overflow/underflow
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `bins` uniform bins.
    ///
    /// Returns `None` when `bins == 0`, the bounds are non-finite, or
    /// `low >= high`.
    pub fn new(low: f64, high: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !low.is_finite() || !high.is_finite() || low >= high {
            return None;
        }
        Some(Self {
            low,
            high,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        })
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let width = (self.high - self.low) / self.bins.len() as f64;
            let idx = ((x - self.low) / width) as usize;
            // Guard the upper edge against floating-point round-up.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations recorded (including out-of-range).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The `[start, end)` interval covered by bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let width = (self.high - self.low) / self.bins.len() as f64;
        (
            self.low + width * i as f64,
            self.low + width * (i + 1) as f64,
        )
    }

    /// Renders a compact ASCII bar chart (one line per bin), used by the
    /// examples. `width` is the maximum bar length in characters.
    pub fn ascii(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_range(i);
            let bar_len = (c as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "[{lo:9.4}, {hi:9.4}) {:>8} {}\n",
                c,
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(2.0, 1.0, 4).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_none());
    }

    #[test]
    fn routes_observations_to_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.record(0.5); // bin 0
        h.record(9.99); // bin 9
        h.record(5.0); // bin 5
        h.record(-1.0); // underflow
        h.record(10.0); // overflow (upper bound exclusive)
        assert_eq!(h.count(), 5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
    }

    #[test]
    fn bin_ranges_tile_the_interval() {
        let h = Histogram::new(2.0, 6.0, 4).unwrap();
        assert_eq!(h.bin_range(0), (2.0, 3.0));
        assert_eq!(h.bin_range(3), (5.0, 6.0));
    }

    #[test]
    fn ascii_renders_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.record(0.1);
        h.record(0.2);
        h.record(1.5);
        let s = h.ascii(10);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
    }
}
