//! Decision salts of the serving layer. Every probabilistic serving
//! decision (task faults, arrival jitter, request shapes, tenant
//! routing) is `memphis_matrix::hash::seeded4(seed, salt, coordinates)`
//! — the same decision hash as sparksim's `FaultPlan` — so a run is
//! bit-identical across repetitions and worker-thread counts.

/// Decision-kind salts (arbitrary, distinct).
pub(crate) mod salt {
    /// Per-attempt request fault decisions.
    pub const FAULT: u64 = 0x5e7e;
    /// Open-loop arrival-gap jitter.
    pub const ARRIVAL: u64 = 0xa771;
    /// Request shape (priority, item, size, service time).
    pub const SHAPE: u64 = 0x51a9;
    /// Tenant routing in the cluster dispatcher.
    pub const ROUTE: u64 = 0xc105;
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_matrix::hash::{seeded4, unit};

    #[test]
    fn decisions_are_pure_and_uniformish() {
        let decide = |seed, salt, coords| unit(seeded4(seed, salt, coords));
        assert_eq!(
            decide(42, salt::FAULT, [1, 2, 3, 4]),
            decide(42, salt::FAULT, [1, 2, 3, 4])
        );
        assert_ne!(
            decide(42, salt::FAULT, [1, 2, 3, 4]),
            decide(42, salt::ARRIVAL, [1, 2, 3, 4])
        );
        let n = 4000;
        let mean = (0..n)
            .map(|i| decide(7, salt::SHAPE, [i, 0, 0, 0]))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
    }
}
