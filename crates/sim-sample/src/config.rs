//! Sampling-run configuration.

/// How measured intervals are placed within their periods.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// One fixed, seeded offset shared by every period (systematic
    /// sampling — the SMARTS default).
    Systematic,
    /// A fresh seeded offset drawn per period (breaks pathological
    /// phase-locking between the period and program loop structure).
    Random,
}

impl Placement {
    /// The policy's CLI and report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Systematic => "systematic",
            Placement::Random => "random",
        }
    }

    /// Parses a [`Placement::name`] back.
    pub fn parse(s: &str) -> Option<Placement> {
        [Placement::Systematic, Placement::Random].into_iter().find(|p| p.name() == s)
    }
}

/// Configuration of a sampled run.
///
/// The run is divided into consecutive *periods* of `period` retired
/// instructions. Within each period one measured interval of `interval`
/// instructions runs on the detailed OoO model, preceded by `warmup`
/// detailed instructions whose statistics are discarded; everything else
/// fast-forwards through the functional executor with cache/predictor
/// warming. The measured interval's placement inside the period is seeded
/// ([`Placement`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SampleConfig {
    /// Measured detailed instructions per interval.
    pub interval: u64,
    /// Detailed warmup instructions before each measured interval
    /// (statistics discarded).
    pub warmup: u64,
    /// Retired instructions per period (one measured interval per period).
    pub period: u64,
    /// Interval placement policy.
    pub placement: Placement,
    /// Seed for interval placement.
    pub seed: u64,
    /// Region of interest: total retired instructions to cover.
    pub max_instructions: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        // Tuned on the 13-benchmark suite at small size / 200k-instruction
        // regions: 10 periods keep the 95% CI meaningful while detailed
        // execution (warmup + interval) covers 20% of the region. Longer
        // regions should raise `period` proportionally — accuracy comes
        // from the interval *count*, cost from the detailed *fraction*.
        SampleConfig {
            interval: 2_000,
            warmup: 2_000,
            period: 20_000,
            placement: Placement::Systematic,
            seed: 42,
            max_instructions: 200_000,
        }
    }
}

impl SampleConfig {
    /// Sets the measured interval length.
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the detailed warmup length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the period length.
    pub fn with_period(mut self, period: u64) -> Self {
        self.period = period;
        self
    }

    /// Sets the placement policy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the region-of-interest length.
    pub fn with_max_instructions(mut self, max_instructions: u64) -> Self {
        self.max_instructions = max_instructions;
        self
    }

    /// Number of whole periods inside the region of interest.
    pub fn periods(&self) -> u64 {
        self.max_instructions / self.period.max(1)
    }

    /// Checks internal consistency; returns a one-line description of the
    /// first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == 0 {
            return Err("sample interval must be nonzero".into());
        }
        if self.period < self.warmup + self.interval {
            return Err(format!(
                "period {} shorter than warmup {} + interval {}",
                self.period, self.warmup, self.interval
            ));
        }
        if self.max_instructions < self.period {
            return Err(format!(
                "max_instructions {} shorter than one period {}",
                self.max_instructions, self.period
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(SampleConfig::default().validate().is_ok());
        assert_eq!(SampleConfig::default().periods(), 10);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SampleConfig::default().with_interval(0).validate().is_err());
        assert!(SampleConfig::default().with_period(10).validate().is_err());
        assert!(SampleConfig::default().with_max_instructions(10).validate().is_err());
    }
}
