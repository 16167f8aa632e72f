//! The shared load board: the observable state of the computers.
//!
//! In the paper each user estimates the available processing rate of every
//! computer "by statistical estimation of the run queue length". The
//! board is that observable surface: it records each user's current flow
//! to each computer; a user derives any computer's total load (and thus
//! its available rate) from it without ever reading another user's
//! strategy object.
//!
//! The ring runs as a single-threaded event loop, so the board needs no
//! lock: the coordinator owns it and lends each user `&mut` access while
//! that user handles a message. Only the token holder writes to it.
//! Every read writes into a caller-owned buffer (the `_into` forms), so
//! the per-token hot path of the ring runtime stays allocation-free.

/// The `m × n` matrix of user→computer flows (jobs/s).
#[derive(Debug)]
pub(crate) struct LoadBoard {
    flows: Vec<Vec<f64>>,
    users: usize,
    computers: usize,
}

impl LoadBoard {
    /// An all-zero board for `users × computers` (the NASH_0 start state:
    /// nobody has placed any flow yet).
    pub(crate) fn new(users: usize, computers: usize) -> Self {
        Self {
            flows: vec![vec![0.0; computers]; users],
            users,
            computers,
        }
    }

    /// Seeds every user's row (e.g. the NASH_P proportional start).
    ///
    /// # Panics
    ///
    /// Panics if `rows` has the wrong shape.
    pub(crate) fn seed(&mut self, rows: &[Vec<f64>]) {
        assert_eq!(rows.len(), self.users, "seed row count");
        for (dst, src) in self.flows.iter_mut().zip(rows) {
            assert_eq!(src.len(), self.computers, "seed column count");
            dst.clone_from(src);
        }
    }

    /// Replaces user `j`'s flow row.
    ///
    /// # Panics
    ///
    /// Panics on a bad index or row length.
    pub(crate) fn publish(&mut self, j: usize, row: &[f64]) {
        assert!(j < self.users, "user index {j}");
        assert_eq!(row.len(), self.computers, "row length");
        self.flows[j].copy_from_slice(row);
    }

    /// Total flow at each computer, `λ_i = Σ_j flow[j][i]`, written into
    /// a reused buffer.
    pub(crate) fn total_flows_into(&self, totals: &mut Vec<f64>) {
        totals.clear();
        totals.resize(self.computers, 0.0);
        for row in &self.flows {
            for (t, &x) in totals.iter_mut().zip(row) {
                *t += x;
            }
        }
    }

    /// Total flow at each computer *excluding* user `j`'s contribution —
    /// what user `j` needs for its available rates — written into a
    /// reused buffer.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub(crate) fn flows_excluding_into(&self, j: usize, totals: &mut Vec<f64>) {
        assert!(j < self.users, "user index {j}");
        totals.clear();
        totals.resize(self.computers, 0.0);
        for (k, row) in self.flows.iter().enumerate() {
            if k == j {
                continue;
            }
            for (t, &x) in totals.iter_mut().zip(row) {
                *t += x;
            }
        }
    }

    /// Snapshot of user `j`'s current row, copied into a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub(crate) fn row_into(&self, j: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.flows[j]);
    }

    /// Zeroes user `j`'s row. The runtime calls this when it declares a
    /// user failed: a dead user sends no jobs, so its flow must stop
    /// loading the computers before the survivors re-converge.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub(crate) fn clear_row(&mut self, j: usize) {
        assert!(j < self.users, "user index {j}");
        self.flows[j].fill(0.0);
    }

    /// Zeroes computer `i`'s column across every user. The runtime calls
    /// this when a *computer* crashes: flow routed to a dead computer is
    /// not being served, so leaving it on the board would make every
    /// user's availability estimate lie about the survivors' headroom.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub(crate) fn clear_column(&mut self, i: usize) {
        assert!(i < self.computers, "computer index {i}");
        for row in &mut self.flows {
            row[i] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(b: &LoadBoard) -> Vec<f64> {
        let mut buf = Vec::new();
        b.total_flows_into(&mut buf);
        buf
    }

    fn row(b: &LoadBoard, j: usize) -> Vec<f64> {
        let mut buf = Vec::new();
        b.row_into(j, &mut buf);
        buf
    }

    #[test]
    fn starts_empty() {
        let b = LoadBoard::new(2, 3);
        assert_eq!(b.users, 2);
        assert_eq!(b.computers, 3);
        assert_eq!(totals(&b), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn publish_and_aggregate() {
        let mut b = LoadBoard::new(2, 2);
        b.publish(0, &[1.0, 2.0]);
        b.publish(1, &[0.5, 0.0]);
        let mut others = Vec::new();
        assert_eq!(totals(&b), vec![1.5, 2.0]);
        b.flows_excluding_into(0, &mut others);
        assert_eq!(others, vec![0.5, 0.0]);
        b.flows_excluding_into(1, &mut others);
        assert_eq!(others, vec![1.0, 2.0]);
        assert_eq!(row(&b, 0), vec![1.0, 2.0]);
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let mut b = LoadBoard::new(2, 2);
        b.publish(0, &[1.0, 2.0]);
        b.publish(1, &[0.5, 0.0]);
        // Buffers carry garbage of the wrong length; every call must
        // leave exactly the board's contents.
        let mut buf = vec![9.0; 5];
        b.total_flows_into(&mut buf);
        assert_eq!(buf, vec![1.5, 2.0]);
        buf = vec![9.0; 5];
        b.flows_excluding_into(1, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0]);
        buf = vec![9.0; 5];
        b.row_into(0, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0]);
    }

    #[test]
    fn republish_overwrites() {
        let mut b = LoadBoard::new(1, 2);
        b.publish(0, &[1.0, 0.0]);
        b.publish(0, &[0.0, 3.0]);
        assert_eq!(totals(&b), vec![0.0, 3.0]);
    }

    #[test]
    fn seed_sets_all_rows() {
        let mut b = LoadBoard::new(2, 2);
        b.seed(&[vec![1.0, 1.0], vec![2.0, 0.0]]);
        assert_eq!(totals(&b), vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn publish_checks_shape() {
        LoadBoard::new(1, 2).publish(0, &[1.0]);
    }

    #[test]
    fn clear_row_removes_a_failed_users_load() {
        let mut b = LoadBoard::new(2, 2);
        b.publish(0, &[1.0, 2.0]);
        b.publish(1, &[0.5, 0.5]);
        b.clear_row(0);
        assert_eq!(row(&b, 0), vec![0.0, 0.0]);
        assert_eq!(totals(&b), vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "user index")]
    fn clear_row_checks_index() {
        LoadBoard::new(1, 1).clear_row(1);
    }

    #[test]
    fn clear_column_removes_a_dead_computers_load() {
        let mut b = LoadBoard::new(2, 3);
        b.publish(0, &[1.0, 2.0, 3.0]);
        b.publish(1, &[0.5, 0.5, 0.5]);
        b.clear_column(1);
        assert_eq!(totals(&b), vec![1.5, 0.0, 3.5]);
        assert_eq!(row(&b, 0), vec![1.0, 0.0, 3.0]);
        assert_eq!(row(&b, 1), vec![0.5, 0.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "computer index")]
    fn clear_column_checks_index() {
        LoadBoard::new(1, 1).clear_column(1);
    }
}
