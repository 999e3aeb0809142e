//! Kubernetes resource quantities.
//!
//! Quantities express CPU, memory, and storage amounts: `"100m"` (0.1 CPU),
//! `"512Mi"`, `"2"`, `"1.5Gi"`, `"1e3"`. This module implements parsing,
//! canonical formatting, and exact arithmetic over a milli-unit fixed-point
//! representation. The paper reports a real Kubernetes bug in quantity
//! conversion ([kubernetes#110653]); [`Quantity::value_with_bugs`]
//! reproduces an equivalent imprecision behind the
//! [`PlatformBugs::quantity_conversion`](crate::platform::PlatformBugs)
//! flag.
//!
//! [kubernetes#110653]: https://github.com/kubernetes/kubernetes/issues/110653

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};
use std::str::FromStr;

/// Error produced when parsing a malformed quantity string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantityError {
    /// The offending input.
    pub input: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for QuantityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid quantity {:?}: {}", self.input, self.message)
    }
}

impl std::error::Error for QuantityError {}

/// The suffix family a quantity was written in, preserved for formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SuffixFamily {
    /// No suffix or decimal SI suffix (m, k, M, G, T, P, E).
    Decimal,
    /// Binary suffix (Ki, Mi, Gi, Ti, Pi, Ei).
    Binary,
}

/// A Kubernetes resource quantity with exact milli-unit arithmetic.
///
/// Internally the amount is stored as an `i128` count of milli-units
/// (thousandths of the base unit), which represents every decimal and binary
/// suffix the Kubernetes API accepts exactly, down to the `m` granularity the
/// platform itself guarantees.
///
/// # Examples
///
/// ```
/// use simkube::Quantity;
///
/// let cpu: Quantity = "250m".parse().unwrap();
/// let mem: Quantity = "1.5Gi".parse().unwrap();
/// assert_eq!(cpu.millis(), 250);
/// assert_eq!(mem.value(), 1_610_612_736);
/// assert_eq!((cpu + "750m".parse().unwrap()).to_string(), "1");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Quantity {
    millis: i128,
    family: SuffixFamily,
}

const DECIMAL_SUFFIXES: &[(&str, i128)] = &[
    ("k", 1_000),
    ("M", 1_000_000),
    ("G", 1_000_000_000),
    ("T", 1_000_000_000_000),
    ("P", 1_000_000_000_000_000),
    ("E", 1_000_000_000_000_000_000),
];

const BINARY_SUFFIXES: &[(&str, i128)] = &[
    ("Ki", 1 << 10),
    ("Mi", 1 << 20),
    ("Gi", 1 << 30),
    ("Ti", 1 << 40),
    ("Pi", 1 << 50),
    ("Ei", 1 << 60),
];

impl Quantity {
    /// Creates a quantity from milli-units (e.g. milli-CPU).
    pub fn from_millis(millis: i64) -> Quantity {
        Quantity {
            millis: i128::from(millis),
            family: SuffixFamily::Decimal,
        }
    }

    /// The zero quantity.
    pub fn zero() -> Quantity {
        Quantity::from_millis(0)
    }

    /// Returns the amount in milli-units.
    pub fn millis(&self) -> i128 {
        self.millis
    }

    /// Returns the amount rounded **up** to whole base units, matching
    /// Kubernetes `Quantity.Value()` semantics.
    pub fn value(&self) -> i64 {
        let units = if self.millis >= 0 {
            (self.millis + 999) / 1000
        } else {
            self.millis / 1000
        };
        units as i64
    }

    /// Like [`Quantity::value`], but reproduces the imprecise conversion of
    /// the Kubernetes bug the paper reports when `buggy` is set: amounts are
    /// routed through an `f64`, losing precision above 2^53 milli-units and
    /// truncating instead of rounding up.
    pub fn value_with_bugs(&self, buggy: bool) -> i64 {
        if buggy {
            (self.millis as f64 / 1000.0) as i64
        } else {
            self.value()
        }
    }

    /// Returns `true` for a negative amount.
    pub fn is_negative(&self) -> bool {
        self.millis < 0
    }

    /// Saturating subtraction clamped at zero, for capacity accounting.
    pub fn saturating_sub(&self, other: &Quantity) -> Quantity {
        Quantity {
            millis: (self.millis - other.millis).max(0),
            family: self.family,
        }
    }

    /// Returns `true` when both quantities format to the same string, as
    /// rendered state shows them. Unlike `==`, which compares amounts
    /// only, this keeps the suffix family: `1Gi` and `1073741824` are the
    /// same amount but render differently. Equal amounts in one family
    /// always render alike, so only a cross-family pair is formatted.
    pub(crate) fn renders_eq(&self, other: &Quantity) -> bool {
        self.millis == other.millis
            && (self.family == other.family || self.canonical() == other.canonical())
    }

    /// Formats the quantity canonically: binary-family values use the
    /// largest exact binary suffix; decimal-family values use `m` or plain
    /// units.
    fn canonical(&self) -> String {
        if self.millis == 0 {
            return "0".to_string();
        }
        if self.family == SuffixFamily::Binary && self.millis % 1000 == 0 {
            let units = self.millis / 1000;
            for (suffix, scale) in BINARY_SUFFIXES.iter().rev() {
                if units % scale == 0 {
                    return format!("{}{}", units / scale, suffix);
                }
            }
            return units.to_string();
        }
        if self.millis % 1000 == 0 {
            let units = self.millis / 1000;
            for (suffix, scale) in DECIMAL_SUFFIXES.iter().rev() {
                if units % scale == 0 && units.abs() >= *scale {
                    return format!("{}{}", units / scale, suffix);
                }
            }
            units.to_string()
        } else {
            format!("{}m", self.millis)
        }
    }
}

impl PartialEq for Quantity {
    fn eq(&self, other: &Self) -> bool {
        self.millis == other.millis
    }
}

impl Eq for Quantity {}

impl PartialOrd for Quantity {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Quantity {
    fn cmp(&self, other: &Self) -> Ordering {
        self.millis.cmp(&other.millis)
    }
}

impl Add for Quantity {
    type Output = Quantity;

    fn add(self, rhs: Quantity) -> Quantity {
        Quantity {
            millis: self.millis + rhs.millis,
            family: self.family,
        }
    }
}

impl Sub for Quantity {
    type Output = Quantity;

    fn sub(self, rhs: Quantity) -> Quantity {
        Quantity {
            millis: self.millis - rhs.millis,
            family: self.family,
        }
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl FromStr for Quantity {
    type Err = QuantityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |message: &str| QuantityError {
            input: s.to_string(),
            message: message.to_string(),
        };
        if s.is_empty() {
            return Err(err("empty string"));
        }
        // Split number prefix from suffix.
        let mut split = s.len();
        for (i, c) in s.char_indices() {
            if !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E') {
                split = i;
                break;
            }
            // `E` is both an exponent marker and the exa suffix; treat it as
            // a suffix when not followed by a digit or sign.
            if (c == 'e' || c == 'E')
                && !s[i + c.len_utf8()..]
                    .chars()
                    .next()
                    .is_some_and(|n| n.is_ascii_digit() || n == '-' || n == '+')
            {
                split = i;
                break;
            }
        }
        let (num_str, suffix) = s.split_at(split);
        if num_str.is_empty() {
            return Err(err("missing numeric part"));
        }
        let (scale_millis, family) = match suffix {
            "" => (1000i128, SuffixFamily::Decimal),
            "m" => (1i128, SuffixFamily::Decimal),
            _ => {
                if let Some((_, scale)) = BINARY_SUFFIXES.iter().find(|(sfx, _)| *sfx == suffix) {
                    (scale * 1000, SuffixFamily::Binary)
                } else if let Some((_, scale)) =
                    DECIMAL_SUFFIXES.iter().find(|(sfx, _)| *sfx == suffix)
                {
                    (scale * 1000, SuffixFamily::Decimal)
                } else {
                    return Err(err("unknown suffix"));
                }
            }
        };
        // Parse the numeric part exactly: mantissa digits + optional decimal
        // point + optional exponent.
        let negative = num_str.starts_with('-');
        let unsigned = match num_str.strip_prefix(['-', '+']) {
            Some(rest) => rest,
            None => num_str,
        };
        if unsigned.starts_with(['-', '+']) {
            return Err(err("repeated sign"));
        }
        let (mantissa_str, exponent) = match unsigned.split_once(['e', 'E']) {
            Some((m, e)) => {
                let exp: i32 = e.parse().map_err(|_| err("invalid exponent"))?;
                (m, exp)
            }
            None => (unsigned, 0),
        };
        let (int_part, frac_part) = match mantissa_str.split_once('.') {
            Some((i, f)) => (i, f),
            None => (mantissa_str, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(err("missing digits"));
        }
        if !int_part.chars().all(|c| c.is_ascii_digit())
            || !frac_part.chars().all(|c| c.is_ascii_digit())
        {
            return Err(err("invalid digits"));
        }
        // Value = digits * 10^(exponent - frac_len) * scale_millis.
        let digits: i128 = format!("{int_part}{frac_part}")
            .parse()
            .map_err(|_| err("number too large"))?;
        let pow10 = exponent - frac_part.len() as i32;
        let mut millis = digits
            .checked_mul(scale_millis)
            .ok_or_else(|| err("overflow"))?;
        if pow10 > 0 {
            for _ in 0..pow10 {
                millis = millis.checked_mul(10).ok_or_else(|| err("overflow"))?;
            }
        } else {
            for _ in 0..(-pow10) {
                if millis % 10 != 0 {
                    // Sub-milli precision: round up (Kubernetes canonicalizes
                    // to the next milli).
                    millis = millis / 10 + 1;
                } else {
                    millis /= 10;
                }
            }
        }
        if negative {
            millis = -millis;
        }
        Ok(Quantity { millis, family })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> Quantity {
        s.parse().unwrap()
    }

    #[test]
    fn parses_plain_and_milli() {
        assert_eq!(q("1").millis(), 1000);
        assert_eq!(q("0").millis(), 0);
        assert_eq!(q("250m").millis(), 250);
        assert_eq!(q("-2").millis(), -2000);
        assert_eq!(q("1.5").millis(), 1500);
        assert_eq!(q("0.1").millis(), 100);
    }

    #[test]
    fn parses_binary_suffixes() {
        assert_eq!(q("1Ki").value(), 1024);
        assert_eq!(q("512Mi").value(), 512 * 1024 * 1024);
        assert_eq!(q("1.5Gi").value(), 3 * (1 << 29));
        assert_eq!(q("2Ti").value(), 2i64 << 40);
    }

    #[test]
    fn parses_decimal_suffixes_and_exponents() {
        assert_eq!(q("2k").value(), 2000);
        assert_eq!(q("3M").value(), 3_000_000);
        assert_eq!(q("1G").value(), 1_000_000_000);
        assert_eq!(q("1e3").value(), 1000);
        assert_eq!(q("1.2e2").value(), 120);
        assert_eq!(q("1E").value(), 1_000_000_000_000_000_000);
        assert_eq!(q("5e-1").millis(), 500);
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "m", "abc", "1Q", "1.2.3", "--1", "1ki", "1MI", "1e"] {
            assert!(bad.parse::<Quantity>().is_err(), "expected error: {bad:?}");
        }
    }

    #[test]
    fn value_rounds_up_like_kubernetes() {
        assert_eq!(q("100m").value(), 1);
        assert_eq!(q("1100m").value(), 2);
        assert_eq!(q("-100m").value(), 0);
        assert_eq!(q("2").value(), 2);
    }

    #[test]
    fn buggy_conversion_differs() {
        // The platform bug truncates rather than rounding up.
        let v = q("1100m");
        assert_eq!(v.value(), 2);
        assert_eq!(v.value_with_bugs(true), 1);
        assert_eq!(v.value_with_bugs(false), 2);
        // And loses precision on huge values.
        let huge = q("9007199254740993"); // 2^53 + 1
        assert_eq!(huge.value(), 9007199254740993);
        assert_ne!(huge.value_with_bugs(true), 9007199254740993);
    }

    #[test]
    fn arithmetic_and_ordering() {
        assert_eq!(q("250m") + q("750m"), q("1"));
        assert_eq!(q("1Gi") - q("512Mi"), q("512Mi"));
        assert!(q("1Gi") > q("1G"));
        assert!(q("100m") < q("1"));
        assert_eq!(q("1").saturating_sub(&q("2")), Quantity::zero());
    }

    #[test]
    fn canonical_formatting() {
        assert_eq!(q("1024Mi").to_string(), "1Gi");
        assert_eq!(q("512Mi").to_string(), "512Mi");
        assert_eq!(q("100m").to_string(), "100m");
        assert_eq!(q("2000m").to_string(), "2");
        assert_eq!(q("3000").to_string(), "3k");
        assert_eq!(Quantity::zero().to_string(), "0");
        assert_eq!(q("1.5Gi").to_string(), "1536Mi");
    }

    #[test]
    fn display_roundtrip() {
        for s in ["1", "250m", "512Mi", "1Gi", "2k", "1536Mi", "0"] {
            let parsed = q(s);
            let round = parsed.to_string().parse::<Quantity>().unwrap();
            assert_eq!(parsed, round, "roundtrip of {s}");
        }
    }

    #[test]
    fn renders_eq_matches_formatting() {
        let cases = [
            "1Gi",
            "1073741824",
            "1024Mi",
            "1G",
            "1000M",
            "0",
            "0Gi",
            "1500m",
            "1.5",
            "3000",
            "3k",
            "2Ki",
            "2048",
        ];
        for a in cases {
            for b in cases {
                assert_eq!(
                    q(a).renders_eq(&q(b)),
                    q(a).to_string() == q(b).to_string(),
                    "{a} vs {b}"
                );
            }
        }
        assert_eq!(q("1Gi"), q("1073741824"));
        assert!(!q("1Gi").renders_eq(&q("1073741824")));
        assert!(q("0Gi").renders_eq(&Quantity::zero()));
    }

    #[test]
    fn sub_milli_rounds_up() {
        // 0.0001 units = 0.1 milli, canonicalized up to 1m.
        assert_eq!(q("0.0001").millis(), 1);
        assert_eq!(q("1e-4").millis(), 1);
    }
}
