//! Batch-sampling fixture: a batch intrinsic root, a retry wrapper whose
//! amortized `probe-total` forwards `batch-count`, roots that bind it,
//! and the unannotated cases D015/D016 must catch.

pub struct Oracle {
    items: Vec<u64>,
}

impl Oracle {
    /// Unit intrinsic: certified and declared at exactly 1.
    pub fn try_sample_weighted(&self, rng: &mut u64) -> u64 {
        self.items[(*rng % 4) as usize]
    }

    /// Batch intrinsic: certified and declared at `batch-count`; its
    /// own unbounded loop lives inside that charge.
    pub fn try_sample_weighted_many(&self, rng: &mut u64, count: u64) -> u64 {
        let mut left = count;
        while left > 0 {
            *rng = rng.wrapping_add(self.items[(*rng % 4) as usize]);
            left -= 1;
        }
        count
    }
}

pub struct LcaKp;

impl LcaKp {
    fn draw_with_retry(&self, oracle: &Oracle, rng: &mut u64, count: u64) -> u64 {
        let mut remaining = count;
        // lcakp-lint: loop-bound(batch-count * retry-attempts) reason="each failed batch spends one retry"
        while remaining > 0 {
            // lcakp-lint: probe-total(batch-count * retry-attempts) reason="each slot is drawn at most retry-attempts times across all batches"
            let got = oracle.try_sample_weighted_many(rng, remaining);
            remaining = remaining.saturating_sub(got);
        }
        remaining
    }

    fn draw_unannotated(&self, oracle: &Oracle, rng: &mut u64, count: u64) -> u64 {
        let mut remaining = count;
        // lcakp-lint: loop-bound(retry-attempts) reason="each failed batch spends one retry"
        while remaining > 0 {
            remaining -= oracle.try_sample_weighted_many(rng, remaining);
        }
        remaining
    }

    // lcakp-lint: probe-budget(coupon-samples * retry-attempts + 1) reason="the bound batch plus one single draw"
    pub fn query_batched(&self, oracle: &Oracle, rng: &mut u64) -> u64 {
        // lcakp-lint: batch-count(coupon-samples) reason="count = coupon_samples()"
        let left = self.draw_with_retry(oracle, rng, 64);
        left + oracle.try_sample_weighted(rng)
    }

    // lcakp-lint: probe-budget(coupon-samples * retry-attempts) reason="the call site forgot to bind batch-count"
    pub fn query_unbound(&self, oracle: &Oracle, rng: &mut u64) -> u64 {
        self.draw_with_retry(oracle, rng, 64)
    }

    // lcakp-lint: probe-budget(16) reason="one batch of 16"
    pub fn query_direct(&self, oracle: &Oracle, rng: &mut u64) -> u64 {
        // lcakp-lint: probe-total(16) reason="one batch of 16"
        oracle.try_sample_weighted_many(rng, 16)
    }

    // lcakp-lint: probe-budget(rounds) reason="one single-sample batch per round"
    pub fn query_loop_total(&self, oracle: &Oracle, rng: &mut u64, rounds: u64) -> u64 {
        let mut total = 0;
        // lcakp-lint: probe-total(rounds) reason="rounds batches of one sample each"
        for _ in 0..rounds {
            total += oracle.try_sample_weighted_many(rng, 1);
        }
        total
    }

    // lcakp-lint: probe-budget(coupon-samples) reason="the batch inside has no probe total"
    pub fn query_unannotated(&self, oracle: &Oracle, rng: &mut u64) -> u64 {
        self.draw_unannotated(oracle, rng, 8)
    }
}
