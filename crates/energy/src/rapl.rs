//! Emulated Intel RAPL energy counters.
//!
//! The paper measures energy with Intel's Running Average Power Limit
//! interface (Rotem et al., IEEE Micro 2012): a per-package MSR exposing a
//! cumulative energy counter in fixed units (2^-16 J on the testbed's
//! Haswell Xeons), stored in 32 bits and silently wrapping. The paper's
//! procedure is to read the counter before and after each scenario and
//! difference the reads.
//!
//! This module reproduces that interface faithfully — quantized units,
//! 32-bit wraparound, monotone deposits — so experiments can measure
//! energy the same way the paper did, wraparound bugs and all.

/// Default RAPL energy unit: 2^-16 J ≈ 15.3 µJ (ENERGY_STATUS_UNITS=16).
pub const DEFAULT_UNIT_J: f64 = 1.0 / 65_536.0;

/// A RAPL power domain, as exposed per package. Only the package plane
/// is modelled: it is the one the paper reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaplDomain {
    /// Whole-package energy (PKG).
    Package,
}

/// A single wrapping energy counter.
#[derive(Clone, Debug)]
pub struct RaplCounter {
    unit_j: f64,
    /// Total deposited energy in *units*, unwrapped (internal bookkeeping).
    total_units: u64,
    /// Fractional unit not yet accumulated.
    residue_j: f64,
}

impl RaplCounter {
    /// A counter with the default 2^-16 J unit.
    pub fn new() -> Self {
        Self::with_unit(DEFAULT_UNIT_J)
    }

    /// A counter with a custom energy unit (must be positive).
    pub fn with_unit(unit_j: f64) -> Self {
        assert!(unit_j > 0.0, "RAPL unit must be positive");
        RaplCounter {
            unit_j,
            total_units: 0,
            residue_j: 0.0,
        }
    }

    /// The energy represented by one counter unit, in Joules.
    pub fn unit_j(&self) -> f64 {
        self.unit_j
    }

    /// Deposit `joules` of consumed energy into the counter.
    pub fn deposit(&mut self, joules: f64) {
        assert!(joules >= 0.0, "energy cannot decrease");
        let total = joules + self.residue_j;
        let units = (total / self.unit_j).floor();
        self.residue_j = total - units * self.unit_j;
        self.total_units += units as u64;
    }

    /// Read the 32-bit wrapping register, exactly like reading the
    /// `MSR_PKG_ENERGY_STATUS` MSR.
    pub fn read_raw(&self) -> u32 {
        (self.total_units & 0xFFFF_FFFF) as u32
    }

    /// Energy in Joules between two raw reads, assuming at most one wrap
    /// (the standard RAPL-consumer assumption; the counter wraps after
    /// ~18 hours at 1 kW with the default unit, so this is safe for any
    /// experiment).
    pub fn delta_j(&self, before: u32, after: u32) -> f64 {
        let units = after.wrapping_sub(before) as u64;
        units as f64 * self.unit_j
    }
}

impl Default for RaplCounter {
    fn default() -> Self {
        Self::new()
    }
}

/// A package's RAPL domains, read the way the paper reads them.
#[derive(Clone, Debug, Default)]
pub struct RaplPackage {
    package: RaplCounter,
}

impl RaplPackage {
    /// Create a package with the default unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit package energy.
    pub fn deposit(&mut self, package_j: f64) {
        self.package.deposit(package_j);
    }

    /// Read a domain's raw counter.
    pub fn read_raw(&self, domain: RaplDomain) -> u32 {
        self.counter(domain).read_raw()
    }

    /// Joules between two raw reads of a domain.
    pub fn delta_j(&self, domain: RaplDomain, before: u32, after: u32) -> f64 {
        self.counter(domain).delta_j(before, after)
    }

    fn counter(&self, domain: RaplDomain) -> &RaplCounter {
        match domain {
            RaplDomain::Package => &self.package,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposits_accumulate_in_units() {
        let mut c = RaplCounter::new();
        let r0 = c.read_raw();
        c.deposit(1.0);
        let r1 = c.read_raw();
        assert_eq!(r1 - r0, 65_536);
        assert!((c.delta_j(r0, r1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sub_unit_deposits_carry_residue() {
        let mut c = RaplCounter::new();
        let r0 = c.read_raw();
        // Four deposits of a quarter unit (exact in binary) must yield
        // exactly one unit.
        for _ in 0..4 {
            c.deposit(DEFAULT_UNIT_J / 4.0);
        }
        assert_eq!(c.read_raw() - r0, 1);
    }

    #[test]
    fn quantization_error_is_bounded_by_one_unit() {
        let mut c = RaplCounter::new();
        let r0 = c.read_raw();
        let mut exact = 0.0;
        for i in 0..1000 {
            let j = 0.001 * (i % 7) as f64;
            c.deposit(j);
            exact += j;
        }
        let measured = c.delta_j(r0, c.read_raw());
        assert!((measured - exact).abs() <= DEFAULT_UNIT_J);
    }

    #[test]
    fn wraparound_diff_is_correct() {
        let c = RaplCounter::new();
        // before near the top, after wrapped past zero.
        let before = u32::MAX - 10;
        let after = 5u32;
        let units = after.wrapping_sub(before);
        assert_eq!(units, 16);
        assert!((c.delta_j(before, after) - 16.0 * DEFAULT_UNIT_J).abs() < 1e-15);
    }

    #[test]
    fn counter_actually_wraps() {
        let mut c = RaplCounter::with_unit(1.0); // 1 J units for speed
        c.deposit(u32::MAX as f64);
        c.deposit(2.0);
        assert_eq!(c.read_raw(), 1);
    }

    #[test]
    fn negative_deposit_panics() {
        let mut c = RaplCounter::new();
        assert!(std::panic::catch_unwind(move || c.deposit(-1.0)).is_err());
    }
}
