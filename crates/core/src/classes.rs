//! Speedup classes C0–C6 (paper Section 4.3).
//!
//! Each performance model predicts the execution time of its
//! configuration *relative to the fastest CSR* (lower = faster), bucketed
//! into seven classes:
//!
//! | class | relative time  | meaning                    |
//! |-------|----------------|----------------------------|
//! | C0    | (∞, 1.05]      | slowdown                   |
//! | C1    | (1.05, 0.95]   | parity                     |
//! | C2    | (0.95, 0.85]   | ~1.1x speedup              |
//! | C3    | (0.85, 0.75]   | ~1.25x                     |
//! | C4    | (0.75, 0.65]   | ~1.4x                      |
//! | C5    | (0.65, 0.55]   | ~1.7x                      |
//! | C6    | (0.55, 0]      | >2x speedup                |

/// A predicted/observed speedup class. Ordering: `C0 < C1 < ... < C6`,
/// i.e. *greater is faster*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpeedupClass {
    C0,
    C1,
    C2,
    C3,
    C4,
    C5,
    C6,
}

wise_trace::json_enum!(SpeedupClass { C0, C1, C2, C3, C4, C5, C6 });

/// Number of classes.
pub const N_CLASSES: usize = 7;

/// Upper boundaries of C1..C6 in relative-time space (C0 is everything
/// above 1.05).
const BOUNDS: [f64; 6] = [1.05, 0.95, 0.85, 0.75, 0.65, 0.55];

impl SpeedupClass {
    pub const ALL: [SpeedupClass; 7] = [
        SpeedupClass::C0,
        SpeedupClass::C1,
        SpeedupClass::C2,
        SpeedupClass::C3,
        SpeedupClass::C4,
        SpeedupClass::C5,
        SpeedupClass::C6,
    ];

    /// Classifies a relative execution time `t_method / t_best_csr`.
    pub fn from_relative_time(ratio: f64) -> SpeedupClass {
        assert!(ratio >= 0.0 && ratio.is_finite(), "relative time must be finite, got {ratio}");
        if ratio > BOUNDS[0] {
            return SpeedupClass::C0;
        }
        for (i, &b) in BOUNDS.iter().enumerate().skip(1) {
            if ratio > b {
                return Self::from_index(i as u32);
            }
        }
        SpeedupClass::C6
    }

    /// Class index 0..=6 (usable as an ML label).
    pub fn index(&self) -> u32 {
        *self as u32
    }

    /// Inverse of [`Self::index`].
    pub fn from_index(i: u32) -> SpeedupClass {
        Self::ALL[i as usize]
    }

    /// A representative relative time for the class (interval midpoint;
    /// open-ended classes use 1.2 and 0.45), used when a scalar estimate
    /// is needed from a class prediction.
    pub fn representative_relative_time(&self) -> f64 {
        match self {
            SpeedupClass::C0 => 1.2,
            SpeedupClass::C1 => 1.0,
            SpeedupClass::C2 => 0.9,
            SpeedupClass::C3 => 0.8,
            SpeedupClass::C4 => 0.7,
            SpeedupClass::C5 => 0.6,
            SpeedupClass::C6 => 0.45,
        }
    }

    /// Representative speedup over the best CSR (1 / relative time).
    pub fn representative_speedup(&self) -> f64 {
        1.0 / self.representative_relative_time()
    }
}

impl std::fmt::Display for SpeedupClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_match_paper() {
        assert_eq!(SpeedupClass::from_relative_time(2.0), SpeedupClass::C0);
        assert_eq!(SpeedupClass::from_relative_time(1.06), SpeedupClass::C0);
        assert_eq!(SpeedupClass::from_relative_time(1.05), SpeedupClass::C1);
        assert_eq!(SpeedupClass::from_relative_time(1.0), SpeedupClass::C1);
        assert_eq!(SpeedupClass::from_relative_time(0.95), SpeedupClass::C2);
        assert_eq!(SpeedupClass::from_relative_time(0.85), SpeedupClass::C3);
        assert_eq!(SpeedupClass::from_relative_time(0.75), SpeedupClass::C4);
        assert_eq!(SpeedupClass::from_relative_time(0.65), SpeedupClass::C5);
        assert_eq!(SpeedupClass::from_relative_time(0.55), SpeedupClass::C6);
        assert_eq!(SpeedupClass::from_relative_time(0.1), SpeedupClass::C6);
        assert_eq!(SpeedupClass::from_relative_time(0.0), SpeedupClass::C6);
    }

    #[test]
    fn ordering_is_faster_is_greater() {
        assert!(SpeedupClass::C6 > SpeedupClass::C0);
        assert!(SpeedupClass::C3 > SpeedupClass::C2);
    }

    #[test]
    fn index_roundtrip() {
        for c in SpeedupClass::ALL {
            assert_eq!(SpeedupClass::from_index(c.index()), c);
        }
    }

    #[test]
    fn representative_times_fall_in_their_class() {
        for c in SpeedupClass::ALL {
            let t = c.representative_relative_time();
            assert_eq!(SpeedupClass::from_relative_time(t), c, "{c}");
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        SpeedupClass::from_relative_time(f64::NAN);
    }

    #[test]
    fn display() {
        assert_eq!(SpeedupClass::C4.to_string(), "C4");
    }
}
