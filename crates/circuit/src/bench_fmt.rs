//! ISCAS-89 `.bench` format parser and writer.
//!
//! The `.bench` format is the lingua franca of the ISCAS-85/89 and ITC-99
//! benchmark distributions:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G10 = NAND(G0, G1)
//! G7  = DFF(G10)
//! ```
//!
//! Because the original benchmark netlists are distribution-restricted, this
//! workspace ships only the tiny, widely-published **s27** circuit (see
//! [`s27`]) as a golden fixture; users holding real ISCAS-89/ITC-99 files can
//! load them through [`parse`].

use crate::{CircuitError, GateKind, Netlist, NetlistBuilder};

/// Parses a `.bench` netlist from text.
///
/// Recognized statements: `INPUT(name)`, `OUTPUT(name)`,
/// `out = KIND(in1, in2, ...)` with `KIND` one of the gate kinds or `DFF`.
/// `#` starts a comment; blank lines are skipped.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] on malformed lines, or any validation
/// error from [`NetlistBuilder::finish`].
///
/// # Examples
///
/// ```
/// let nl = atspeed_circuit::bench_fmt::parse("two_inv", "
///     INPUT(a)
///     OUTPUT(y)
///     x = NOT(a)
///     y = NOT(x)
/// ")?;
/// assert_eq!(nl.num_gates(), 2);
/// # Ok::<(), atspeed_circuit::CircuitError>(())
/// ```
pub fn parse(name: &str, text: &str) -> Result<Netlist, CircuitError> {
    // Counting pass: statements bound the table sizes, so the builder can
    // reserve once instead of regrowing per line on 100k-gate netlists.
    // Every net is introduced by exactly one statement (its driver or an
    // INPUT line), so statement count bounds net count.
    let mut stmts = 0usize;
    let mut ffs = 0usize;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        stmts += 1;
        if line.contains("DFF") || line.contains("dff") {
            ffs += 1;
        }
    }
    let mut b = NetlistBuilder::with_capacity(name, stmts, stmts.saturating_sub(ffs), ffs);
    // One scratch buffer reused across lines; `&str` slices borrow `text`.
    let mut args: Vec<&str> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: &str| CircuitError::Parse {
            line: lineno + 1,
            message: message.to_owned(),
        };
        if let Some(rest) = strip_call(line, "INPUT") {
            b.input(rest);
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            b.output(rest);
        } else if let Some(eq) = line.find('=') {
            let out = line[..eq].trim();
            if out.is_empty() {
                return Err(err("missing output name before `=`"));
            }
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| err("missing `(` in gate"))?;
            let close = rhs.rfind(')').ok_or_else(|| err("missing `)` in gate"))?;
            if close < open {
                return Err(err("mismatched parentheses"));
            }
            let func = rhs[..open].trim();
            args.clear();
            args.extend(
                rhs[open + 1..close]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty()),
            );
            if args.is_empty() {
                return Err(err("gate has no inputs"));
            }
            if func.eq_ignore_ascii_case("DFF") {
                if args.len() != 1 {
                    return Err(err("DFF takes exactly one input"));
                }
                b.dff(out, args[0]);
            } else {
                let kind: GateKind = func
                    .parse()
                    .map_err(|_| err(&format!("unknown function `{func}`")))?;
                b.gate(kind, out, &args);
            }
        } else {
            return Err(err("unrecognized statement"));
        }
    }
    b.finish()
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line
        .get(..keyword.len())
        .filter(|p| p.eq_ignore_ascii_case(keyword))
        .map(|_| line[keyword.len()..].trim())?;
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    let inner = inner.trim();
    (!inner.is_empty()).then_some(inner)
}

/// Serializes a netlist back to `.bench` text.
///
/// The output parses back ([`parse`]) to a structurally identical circuit.
pub fn write(nl: &Netlist) -> String {
    use std::fmt::Write as _;
    // ~32 bytes per statement is a comfortable upper estimate for the
    // generated naming schemes; one reservation instead of repeated growth.
    let stmts = nl.num_pis() + nl.num_pos() + nl.num_ffs() + nl.num_gates() + 2;
    let mut out = String::with_capacity(stmts * 32);
    let _ = writeln!(out, "# {}", nl.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} D-type flipflops, {} gates",
        nl.num_pis(),
        nl.num_pos(),
        nl.num_ffs(),
        nl.num_gates()
    );
    for &pi in nl.pis() {
        let _ = writeln!(out, "INPUT({})", nl.net_name(pi));
    }
    for &po in nl.pos() {
        let _ = writeln!(out, "OUTPUT({})", nl.net_name(po));
    }
    for ff in nl.ffs() {
        let _ = writeln!(
            out,
            "{} = DFF({})",
            nl.net_name(ff.q()),
            nl.net_name(ff.d())
        );
    }
    for g in nl.gates() {
        let _ = write!(
            out,
            "{} = {}(",
            nl.net_name(g.output()),
            g.kind().bench_name()
        );
        for (i, &n) in g.inputs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(nl.net_name(n));
        }
        out.push_str(")\n");
    }
    out
}

/// The ISCAS-89 **s27** benchmark circuit, embedded as a golden fixture.
///
/// s27 has 4 primary inputs, 1 primary output, 3 flip-flops, and 10 gates
/// (plus the published netlist's inverter ordering). It is small enough that
/// its behaviour and collapsed fault set are hand-checkable, and is used
/// throughout the workspace's tests as ground truth.
pub fn s27() -> Netlist {
    parse("s27", S27_BENCH).expect("embedded s27 netlist is valid")
}

/// The raw `.bench` text of the s27 fixture returned by [`s27`].
pub const S27_BENCH: &str = "\
# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, Sink};

    #[test]
    fn parses_s27_structure() {
        let nl = s27();
        assert_eq!(nl.num_pis(), 4);
        assert_eq!(nl.num_pos(), 1);
        assert_eq!(nl.num_ffs(), 3);
        assert_eq!(nl.num_gates(), 10);
    }

    #[test]
    fn round_trips_through_writer() {
        let nl = s27();
        let text = write(&nl);
        let back = parse("s27", &text).unwrap();
        assert_eq!(back.num_nets(), nl.num_nets());
        assert_eq!(back.num_gates(), nl.num_gates());
        assert_eq!(back.num_ffs(), nl.num_ffs());
        assert_eq!(back.num_pis(), nl.num_pis());
        assert_eq!(back.num_pos(), nl.num_pos());
        // Structural spot check: same driver kind for every same-named net.
        for net in nl.net_ids() {
            let other = back.find_net(nl.net_name(net)).unwrap();
            let same = matches!(
                (nl.driver(net), back.driver(other)),
                (Driver::Pi(_), Driver::Pi(_))
                    | (Driver::Gate(_), Driver::Gate(_))
                    | (Driver::Ff(_), Driver::Ff(_))
            );
            assert!(same, "driver mismatch on {}", nl.net_name(net));
        }
    }

    #[test]
    fn s27_fanout_stems() {
        let nl = s27();
        // G8 fans out to G15 and G16.
        let g8 = nl.find_net("G8").unwrap();
        assert_eq!(nl.fanouts(g8).len(), 2);
        // G11 fans out to G17 (NOT), G10 (NOR) and the DFF G6.
        let g11 = nl.find_net("G11").unwrap();
        assert_eq!(nl.fanouts(g11).len(), 3);
        assert!(nl.fanouts(g11).iter().any(|s| matches!(s, Sink::FfD(_))));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let nl = parse(
            "c",
            "# leading comment\n\nINPUT(a) # trailing\nOUTPUT(y)\ny = BUF(a)\n",
        )
        .unwrap();
        assert_eq!(nl.num_gates(), 1);
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let err = parse("bad", "INPUT(a)\ny = FROB(a)\n").unwrap_err();
        match err {
            CircuitError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("FROB"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_multi_input_dff() {
        let err = parse("bad", "INPUT(a)\nINPUT(b)\nq = DFF(a, b)\nOUTPUT(q)\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 3, .. }));
    }

    #[test]
    fn rejects_statement_without_equals() {
        let err = parse("bad", "INPUT(a)\nwibble\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 2, .. }));
    }

    #[test]
    fn case_insensitive_keywords() {
        let nl = parse("c", "input(a)\noutput(y)\ny = not(a)\n").unwrap();
        assert_eq!(nl.num_pis(), 1);
        assert_eq!(nl.num_gates(), 1);
    }

    /// A pin index is a `u8`, so a gate past 256 inputs is a structured
    /// error, not a panic.
    #[test]
    fn fanin_is_capped_at_256() {
        let wide_and = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
            let mut text: String = names.iter().map(|x| format!("INPUT({x})\n")).collect();
            text.push_str(&format!("OUTPUT(y)\ny = AND({})\n", names.join(", ")));
            text
        };
        let nl = parse("w256", &wide_and(crate::MAX_FANIN)).unwrap();
        assert_eq!(nl.gates()[0].inputs().len(), 256);
        let err = parse("w257", &wide_and(crate::MAX_FANIN + 1)).unwrap_err();
        assert!(
            matches!(err, CircuitError::BadFanin { ref net, got: 257 } if net == "y"),
            "{err:?}"
        );
    }
}
