//! The shared load board: the observable state of the computers.
//!
//! In the paper each user estimates the available processing rate of every
//! computer "by statistical estimation of the run queue length". The
//! board is that observable surface: it records each user's current flow
//! to each computer; a user derives any computer's total load (and thus
//! its available rate) from it without ever reading another user's
//! strategy object.
//!
//! Only the token holder mutates the board, while every user and the
//! coordinator read it; it sits behind a `parking_lot::RwLock`, so a
//! shared `&LoadBoard` is safe to use from any thread.

use parking_lot::RwLock;

/// Shared `m × n` matrix of user→computer flows (jobs/s).
#[derive(Debug)]
pub struct LoadBoard {
    flows: RwLock<Vec<Vec<f64>>>,
    users: usize,
    computers: usize,
}

impl LoadBoard {
    /// An all-zero board for `users × computers` (the NASH_0 start state:
    /// nobody has placed any flow yet).
    pub fn new(users: usize, computers: usize) -> Self {
        Self {
            flows: RwLock::new(vec![vec![0.0; computers]; users]),
            users,
            computers,
        }
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of computers.
    pub fn computers(&self) -> usize {
        self.computers
    }

    /// Seeds every user's row (e.g. the NASH_P proportional start).
    ///
    /// # Panics
    ///
    /// Panics if `rows` has the wrong shape.
    pub fn seed(&self, rows: &[Vec<f64>]) {
        assert_eq!(rows.len(), self.users, "seed row count");
        let mut guard = self.flows.write();
        for (dst, src) in guard.iter_mut().zip(rows) {
            assert_eq!(src.len(), self.computers, "seed column count");
            dst.clone_from(src);
        }
    }

    /// Replaces user `j`'s flow row.
    ///
    /// # Panics
    ///
    /// Panics on a bad index or row length.
    pub fn publish(&self, j: usize, row: &[f64]) {
        assert!(j < self.users, "user index {j}");
        assert_eq!(row.len(), self.computers, "row length");
        self.flows.write()[j].copy_from_slice(row);
    }

    /// Total flow at each computer: `λ_i = Σ_j flow[j][i]`.
    pub fn total_flows(&self) -> Vec<f64> {
        let mut totals = Vec::new();
        self.total_flows_into(&mut totals);
        totals
    }

    /// [`LoadBoard::total_flows`] written into a reused buffer, so the
    /// per-token hot path of the ring runtime stays allocation-free.
    pub fn total_flows_into(&self, totals: &mut Vec<f64>) {
        totals.clear();
        totals.resize(self.computers, 0.0);
        let guard = self.flows.read();
        for row in guard.iter() {
            for (t, &x) in totals.iter_mut().zip(row) {
                *t += x;
            }
        }
    }

    /// Total flow at each computer *excluding* user `j`'s contribution —
    /// what user `j` needs for its available rates.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub fn flows_excluding(&self, j: usize) -> Vec<f64> {
        let mut totals = Vec::new();
        self.flows_excluding_into(j, &mut totals);
        totals
    }

    /// [`LoadBoard::flows_excluding`] written into a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub fn flows_excluding_into(&self, j: usize, totals: &mut Vec<f64>) {
        assert!(j < self.users, "user index {j}");
        totals.clear();
        totals.resize(self.computers, 0.0);
        let guard = self.flows.read();
        for (k, row) in guard.iter().enumerate() {
            if k == j {
                continue;
            }
            for (t, &x) in totals.iter_mut().zip(row) {
                *t += x;
            }
        }
    }

    /// Snapshot of user `j`'s current row.
    pub fn row(&self, j: usize) -> Vec<f64> {
        self.flows.read()[j].clone()
    }

    /// [`LoadBoard::row`] copied into a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub fn row_into(&self, j: usize, out: &mut Vec<f64>) {
        let guard = self.flows.read();
        out.clear();
        out.extend_from_slice(&guard[j]);
    }

    /// Zeroes user `j`'s row. The runtime calls this when it declares a
    /// user failed: a dead user sends no jobs, so its flow must stop
    /// loading the computers before the survivors re-converge.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub fn clear_row(&self, j: usize) {
        assert!(j < self.users, "user index {j}");
        self.flows.write()[j].fill(0.0);
    }

    /// Zeroes computer `i`'s column across every user. The runtime calls
    /// this when a *computer* crashes: flow routed to a dead computer is
    /// not being served, so leaving it on the board would make every
    /// user's availability estimate lie about the survivors' headroom.
    ///
    /// # Panics
    ///
    /// Panics on a bad index.
    pub fn clear_column(&self, i: usize) {
        assert!(i < self.computers, "computer index {i}");
        let mut guard = self.flows.write();
        for row in guard.iter_mut() {
            row[i] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let b = LoadBoard::new(2, 3);
        assert_eq!(b.users(), 2);
        assert_eq!(b.computers(), 3);
        assert_eq!(b.total_flows(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn publish_and_aggregate() {
        let b = LoadBoard::new(2, 2);
        b.publish(0, &[1.0, 2.0]);
        b.publish(1, &[0.5, 0.0]);
        assert_eq!(b.total_flows(), vec![1.5, 2.0]);
        assert_eq!(b.flows_excluding(0), vec![0.5, 0.0]);
        assert_eq!(b.flows_excluding(1), vec![1.0, 2.0]);
        assert_eq!(b.row(0), vec![1.0, 2.0]);
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let b = LoadBoard::new(2, 2);
        b.publish(0, &[1.0, 2.0]);
        b.publish(1, &[0.5, 0.0]);
        // Buffers carry garbage of the wrong length; every call must
        // leave exactly the same contents as the allocating variant.
        let mut buf = vec![9.0; 5];
        b.total_flows_into(&mut buf);
        assert_eq!(buf, b.total_flows());
        b.flows_excluding_into(1, &mut buf);
        assert_eq!(buf, b.flows_excluding(1));
        b.row_into(0, &mut buf);
        assert_eq!(buf, b.row(0));
    }

    #[test]
    fn republish_overwrites() {
        let b = LoadBoard::new(1, 2);
        b.publish(0, &[1.0, 0.0]);
        b.publish(0, &[0.0, 3.0]);
        assert_eq!(b.total_flows(), vec![0.0, 3.0]);
    }

    #[test]
    fn seed_sets_all_rows() {
        let b = LoadBoard::new(2, 2);
        b.seed(&[vec![1.0, 1.0], vec![2.0, 0.0]]);
        assert_eq!(b.total_flows(), vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn publish_checks_shape() {
        LoadBoard::new(1, 2).publish(0, &[1.0]);
    }

    #[test]
    fn clear_row_removes_a_failed_users_load() {
        let b = LoadBoard::new(2, 2);
        b.publish(0, &[1.0, 2.0]);
        b.publish(1, &[0.5, 0.5]);
        b.clear_row(0);
        assert_eq!(b.row(0), vec![0.0, 0.0]);
        assert_eq!(b.total_flows(), vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "user index")]
    fn clear_row_checks_index() {
        LoadBoard::new(1, 1).clear_row(1);
    }

    #[test]
    fn clear_column_removes_a_dead_computers_load() {
        let b = LoadBoard::new(2, 3);
        b.publish(0, &[1.0, 2.0, 3.0]);
        b.publish(1, &[0.5, 0.5, 0.5]);
        b.clear_column(1);
        assert_eq!(b.total_flows(), vec![1.5, 0.0, 3.5]);
        assert_eq!(b.row(0), vec![1.0, 0.0, 3.0]);
        assert_eq!(b.row(1), vec![0.5, 0.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "computer index")]
    fn clear_column_checks_index() {
        LoadBoard::new(1, 1).clear_column(1);
    }

    #[test]
    fn concurrent_reads_do_not_block() {
        use std::sync::Arc;
        let b = Arc::new(LoadBoard::new(4, 4));
        b.publish(0, &[1.0, 0.0, 0.0, 0.0]);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let t = b.total_flows();
                        assert_eq!(t.len(), 4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
