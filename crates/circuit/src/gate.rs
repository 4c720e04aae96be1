//! Gate kinds and their boolean semantics.

use std::fmt;
use std::str::FromStr;

/// The widest gate a netlist accepts. A pin index is a `u8` in gate-pin
/// sinks and gate-pin fault sites, so a gate has at most 256 pins.
pub const MAX_FANIN: usize = 256;

/// The kind of a combinational logic gate.
///
/// All kinds except [`GateKind::Not`] and [`GateKind::Buf`] accept two to
/// [`MAX_FANIN`] inputs; `Not` and `Buf` accept exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Logical conjunction.
    And,
    /// Negated conjunction.
    Nand,
    /// Logical disjunction.
    Or,
    /// Negated disjunction.
    Nor,
    /// Exclusive or (parity of inputs).
    Xor,
    /// Negated exclusive or.
    Xnor,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
}

impl GateKind {
    /// All gate kinds, in a fixed order.
    pub const ALL: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// Returns `true` if this kind accepts `n` inputs.
    #[inline]
    pub fn accepts_fanin(self, n: usize) -> bool {
        match self {
            GateKind::Not | GateKind::Buf => n == 1,
            // Single-input AND/OR/... occasionally appear in benchmark
            // netlists and behave as buffers; accept them.
            _ => (1..=MAX_FANIN).contains(&n),
        }
    }

    /// Returns `true` if the output is the complement of the base function
    /// (NAND/NOR/XNOR/NOT).
    #[inline]
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The controlling input value of the gate, if it has one.
    ///
    /// When any input carries the controlling value, the output is fully
    /// determined regardless of the other inputs. XOR-class gates and
    /// buffers/inverters have no controlling value.
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Evaluates the gate over fully-specified boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        assert!(!inputs.is_empty(), "gate evaluated with no inputs");
        let base = match self {
            GateKind::And | GateKind::Nand => inputs.iter().all(|&v| v),
            GateKind::Or | GateKind::Nor => inputs.iter().any(|&v| v),
            GateKind::Xor | GateKind::Xnor => inputs.iter().filter(|&&v| v).count() % 2 == 1,
            GateKind::Not | GateKind::Buf => inputs[0],
        };
        base ^ self.inverts()
    }

    /// The canonical upper-case name used by the `.bench` format.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// Error returned when parsing a [`GateKind`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateKindError {
    token: String,
}

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind `{}`", self.token)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "AND" => Ok(GateKind::And),
            "NAND" => Ok(GateKind::Nand),
            "OR" => Ok(GateKind::Or),
            "NOR" => Ok(GateKind::Nor),
            "XOR" => Ok(GateKind::Xor),
            "XNOR" => Ok(GateKind::Xnor),
            "NOT" | "INV" => Ok(GateKind::Not),
            "BUF" | "BUFF" => Ok(GateKind::Buf),
            other => Err(ParseGateKindError {
                token: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_truth_tables() {
        let cases: [(GateKind, [bool; 4]); 6] = [
            // outputs for input pairs (0,0) (0,1) (1,0) (1,1)
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let a = i & 2 != 0;
                let b = i & 1 != 0;
                assert_eq!(kind.eval_bool(&[a, b]), e, "{kind} ({a},{b})");
            }
        }
        assert!(!GateKind::Not.eval_bool(&[true]));
        assert!(GateKind::Buf.eval_bool(&[true]));
    }

    #[test]
    fn three_input_parity_and_conjunction() {
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, false]));
        assert!(GateKind::And.eval_bool(&[true, true, true]));
        assert!(!GateKind::Nand.eval_bool(&[true, true, true]));
    }

    #[test]
    fn fanin_rules() {
        assert!(GateKind::Not.accepts_fanin(1));
        assert!(!GateKind::Not.accepts_fanin(2));
        assert!(GateKind::And.accepts_fanin(4));
        assert!(!GateKind::And.accepts_fanin(0));
        assert!(GateKind::Xor.accepts_fanin(MAX_FANIN));
        assert!(!GateKind::Xor.accepts_fanin(MAX_FANIN + 1));
    }

    #[test]
    fn parses_bench_names_case_insensitively() {
        assert_eq!("nand".parse::<GateKind>().unwrap(), GateKind::Nand);
        assert_eq!("BUFF".parse::<GateKind>().unwrap(), GateKind::Buf);
        assert_eq!("INV".parse::<GateKind>().unwrap(), GateKind::Not);
        assert!("DFF".parse::<GateKind>().is_err());
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
    }

    #[test]
    fn display_round_trips_via_from_str() {
        for kind in GateKind::ALL {
            assert_eq!(kind.to_string().parse::<GateKind>().unwrap(), kind);
        }
    }
}
