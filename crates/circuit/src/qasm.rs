//! OpenQASM 2.0 reader and writer for the subset of the language used by the
//! QASMBench suite: a single quantum register, the standard-library gates
//! covered by [`crate::gate::GateKind`], and `measure`/`barrier` statements
//! (which carry no simulation semantics here and are skipped).
//!
//! The writer round-trips everything the reader accepts, which the tests use
//! as the parser's main invariant.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors produced while parsing an OpenQASM 2.0 source.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmError {
    /// A statement could not be understood; carries the line number (1-based)
    /// and a description.
    Parse(usize, String),
    /// A gate referenced a qubit outside any declared register.
    UnknownQubit(usize, String),
    /// A gate name is not supported by this reader.
    UnsupportedGate(usize, String),
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QasmError::Parse(line, msg) => write!(f, "line {line}: parse error: {msg}"),
            QasmError::UnknownQubit(line, q) => write!(f, "line {line}: unknown qubit {q}"),
            QasmError::UnsupportedGate(line, g) => {
                write!(f, "line {line}: unsupported gate '{g}'")
            }
        }
    }
}

impl std::error::Error for QasmError {}

/// Parse an OpenQASM 2.0 program into a [`Circuit`].
///
/// Multiple quantum registers are flattened into one contiguous qubit index
/// space in declaration order. Classical registers, `measure`, `barrier`,
/// `reset` and `if` statements are ignored (the simulators in this workspace
/// simulate the pure unitary part of a circuit, as the paper's do).
pub fn parse_qasm(source: &str) -> Result<Circuit, QasmError> {
    let mut registers: Vec<(String, usize)> = Vec::new();
    let mut reg_offset: HashMap<String, usize> = HashMap::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut total_qubits = 0usize;

    for (lineno, raw_line) in source.lines().enumerate() {
        let lineno = lineno + 1;
        // Strip comments.
        let line = match raw_line.find("//") {
            Some(idx) => &raw_line[..idx],
            None => raw_line,
        };
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let (name, size) = parse_register_decl(rest, lineno)?;
                reg_offset.insert(name.clone(), total_qubits);
                total_qubits += size;
                registers.push((name, size));
                continue;
            }
            if stmt.starts_with("creg")
                || stmt.starts_with("measure")
                || stmt.starts_with("barrier")
                || stmt.starts_with("reset")
                || stmt.starts_with("if")
            {
                continue;
            }
            let gate = parse_gate_statement(stmt, lineno, &reg_offset)?;
            gates.push(gate);
        }
    }

    let name = registers
        .first()
        .map(|(n, _)| n.clone())
        .unwrap_or_else(|| "qasm".to_string());
    let mut circuit = Circuit::named(name, total_qubits);
    for g in gates {
        for &q in &g.qubits {
            if q >= total_qubits {
                return Err(QasmError::UnknownQubit(0, format!("q[{q}]")));
            }
        }
        circuit.push(g);
    }
    Ok(circuit)
}

/// Serialise a circuit to OpenQASM 2.0 using a single register named `q`.
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    for g in circuit.gates() {
        let params = g.kind.params();
        if params.is_empty() {
            let _ = write!(out, "{}", g.kind.name());
        } else {
            let ps: Vec<String> = params.iter().map(|p| format!("{p:.12}")).collect();
            let _ = write!(out, "{}({})", g.kind.name(), ps.join(","));
        }
        let qs: Vec<String> = g.qubits.iter().map(|q| format!("q[{q}]")).collect();
        let _ = writeln!(out, " {};", qs.join(","));
    }
    out
}

fn parse_register_decl(rest: &str, lineno: usize) -> Result<(String, usize), QasmError> {
    let rest = rest.trim();
    let open = rest
        .find('[')
        .ok_or_else(|| QasmError::Parse(lineno, format!("bad register decl '{rest}'")))?;
    let close = rest
        .find(']')
        .ok_or_else(|| QasmError::Parse(lineno, format!("bad register decl '{rest}'")))?;
    let name = rest[..open].trim().to_string();
    let size: usize = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| QasmError::Parse(lineno, format!("bad register size in '{rest}'")))?;
    Ok((name, size))
}

fn parse_gate_statement(
    stmt: &str,
    lineno: usize,
    reg_offset: &HashMap<String, usize>,
) -> Result<Gate, QasmError> {
    // Split "name(params) operands" into name, params, operands.
    let (head, operands_str) = match stmt.find(char::is_whitespace) {
        Some(idx) if !stmt[..idx].contains('(') || stmt[..idx].contains(')') => {
            (&stmt[..idx], &stmt[idx..])
        }
        _ => {
            // The parameter list may contain spaces; find the closing paren.
            match stmt.find(')') {
                Some(close) => (&stmt[..=close], &stmt[close + 1..]),
                None => match stmt.find(char::is_whitespace) {
                    Some(idx) => (&stmt[..idx], &stmt[idx..]),
                    None => {
                        return Err(QasmError::Parse(lineno, format!("bad statement '{stmt}'")))
                    }
                },
            }
        }
    };

    let (name, params) = match head.find('(') {
        Some(open) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| QasmError::Parse(lineno, format!("unclosed '(' in '{head}'")))?;
            let name = head[..open].trim();
            let params: Result<Vec<f64>, QasmError> = head[open + 1..close]
                .split(',')
                .map(|p| parse_angle(p.trim(), lineno))
                .collect();
            (name, params?)
        }
        None => (head.trim(), Vec::new()),
    };

    let qubits: Result<Vec<usize>, QasmError> = operands_str
        .split(',')
        .map(|op| parse_operand(op.trim(), lineno, reg_offset))
        .collect();
    let qubits = qubits?;

    let kind = gate_kind_from_name(name, &params)
        .ok_or_else(|| QasmError::UnsupportedGate(lineno, name.to_string()))?;
    if qubits.len() != kind.arity() {
        return Err(QasmError::Parse(
            lineno,
            format!(
                "gate {} expects {} operands, got {}",
                name,
                kind.arity(),
                qubits.len()
            ),
        ));
    }
    Ok(Gate::new(kind, qubits))
}

fn parse_operand(
    op: &str,
    lineno: usize,
    reg_offset: &HashMap<String, usize>,
) -> Result<usize, QasmError> {
    let open = op
        .find('[')
        .ok_or_else(|| QasmError::Parse(lineno, format!("bad operand '{op}'")))?;
    let close = op
        .find(']')
        .ok_or_else(|| QasmError::Parse(lineno, format!("bad operand '{op}'")))?;
    let reg = op[..open].trim();
    let idx: usize = op[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| QasmError::Parse(lineno, format!("bad qubit index in '{op}'")))?;
    let offset = reg_offset
        .get(reg)
        .ok_or_else(|| QasmError::UnknownQubit(lineno, op.to_string()))?;
    Ok(offset + idx)
}

/// Parse an angle expression: a float literal, optionally involving `pi`
/// (e.g. `pi/2`, `-pi/4`, `2*pi`, `0.5`, `3pi/2`). An angle that is not
/// finite (`nan`, `inf`, `1e999`, `pi/0`) is refused: it would turn the
/// whole state into NaN.
fn parse_angle(expr: &str, lineno: usize) -> Result<f64, QasmError> {
    let expr = expr.trim();
    if expr.is_empty() {
        return Err(QasmError::Parse(lineno, "empty angle".into()));
    }
    let finite = |angle: f64| match angle.is_finite() {
        true => Ok(angle),
        false => Err(QasmError::Parse(
            lineno,
            format!("angle '{expr}' is not finite"),
        )),
    };
    if let Ok(v) = expr.parse::<f64>() {
        return finite(v);
    }
    let compact: String = expr.chars().filter(|c| !c.is_whitespace()).collect();

    // Handle the common `a*pi/b`, `pi/b`, `-pi/b`, `a*pi`, `pi` forms.
    let (sign, body) = match compact.strip_prefix('-') {
        Some(rest) => (-1.0, rest.to_string()),
        None => (1.0, compact.clone()),
    };
    let (num_part, den): (String, f64) = match body.split_once('/') {
        Some((n, d)) => {
            let d = d
                .parse::<f64>()
                .map_err(|_| QasmError::Parse(lineno, format!("bad angle '{expr}'")))?;
            (n.to_string(), d)
        }
        None => (body.clone(), 1.0),
    };
    let num = if num_part == "pi" {
        std::f64::consts::PI
    } else if let Some(coeff) = num_part.strip_suffix("*pi") {
        coeff
            .parse::<f64>()
            .map_err(|_| QasmError::Parse(lineno, format!("bad angle '{expr}'")))?
            * std::f64::consts::PI
    } else if let Some(coeff) = num_part.strip_suffix("pi") {
        if coeff.is_empty() {
            std::f64::consts::PI
        } else {
            coeff
                .parse::<f64>()
                .map_err(|_| QasmError::Parse(lineno, format!("bad angle '{expr}'")))?
                * std::f64::consts::PI
        }
    } else {
        num_part
            .parse::<f64>()
            .map_err(|_| QasmError::Parse(lineno, format!("bad angle '{expr}'")))?
    };
    finite(sign * num / den)
}

fn gate_kind_from_name(name: &str, params: &[f64]) -> Option<GateKind> {
    use GateKind::*;
    let p = |i: usize| params.get(i).copied().unwrap_or(0.0);
    let kind = match name {
        "id" | "i" => I,
        "x" => X,
        "y" => Y,
        "z" => Z,
        "h" => H,
        "s" => S,
        "sdg" => Sdg,
        "t" => T,
        "tdg" => Tdg,
        "sx" => Sx,
        "sxdg" => Sxdg,
        "rx" => Rx(p(0)),
        "ry" => Ry(p(0)),
        "rz" => Rz(p(0)),
        "p" | "u1" => P(p(0)),
        "u2" => U2(p(0), p(1)),
        "u3" | "u" => U3(p(0), p(1), p(2)),
        "cx" | "CX" => Cx,
        "cy" => Cy,
        "cz" => Cz,
        "ch" => Ch,
        "cp" | "cu1" => Cp(p(0)),
        "crx" => Crx(p(0)),
        "cry" => Cry(p(0)),
        "crz" => Crz(p(0)),
        "cu3" => Cu3(p(0), p(1), p(2)),
        "rzz" => Rzz(p(0)),
        "rxx" => Rxx(p(0)),
        "swap" => Swap,
        "ccx" => Ccx,
        "cswap" => Cswap,
        _ => return None,
    };
    Some(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn parses_minimal_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];
            cx q[0],q[1];
            rz(pi/4) q[2];
            measure q[0] -> c[0];
        "#;
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_gates(), 3);
        assert_eq!(c.gates()[0].kind, GateKind::H);
        assert_eq!(c.gates()[1].kind, GateKind::Cx);
        match c.gates()[2].kind {
            GateKind::Rz(a) => assert!((a - std::f64::consts::FRAC_PI_4).abs() < 1e-12),
            ref other => panic!("expected rz, got {other:?}"),
        }
    }

    #[test]
    fn flattens_multiple_registers() {
        let src = "qreg a[2];\nqreg b[2];\ncx a[1],b[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.gates()[0].qubits, vec![1, 2]);
    }

    #[test]
    fn angle_expressions() {
        use std::f64::consts::PI;
        assert!((parse_angle("pi", 1).unwrap() - PI).abs() < 1e-12);
        assert!((parse_angle("-pi/2", 1).unwrap() + PI / 2.0).abs() < 1e-12);
        assert!((parse_angle("3*pi/4", 1).unwrap() - 3.0 * PI / 4.0).abs() < 1e-12);
        assert!((parse_angle("2pi", 1).unwrap() - 2.0 * PI).abs() < 1e-12);
        assert!((parse_angle("0.25", 1).unwrap() - 0.25).abs() < 1e-12);
        assert!(parse_angle("garbage", 1).is_err());
    }

    #[test]
    fn non_finite_angles_are_refused() {
        use std::f64::consts::PI;
        for angle in ["nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"] {
            assert!(
                matches!(parse_angle(angle, 7), Err(QasmError::Parse(7, _))),
                "{angle}"
            );
        }
        for angle in [
            "pi/0", "-pi/0", "0/0", "2*pi/0", "1e308*pi", "nan*pi", "inf/2",
        ] {
            assert!(
                matches!(parse_angle(angle, 7), Err(QasmError::Parse(7, _))),
                "{angle}"
            );
        }
        let src = "qreg q[1];\nrz(nan) q[0];";
        assert!(matches!(parse_qasm(src), Err(QasmError::Parse(2, _))));
        // Finite spellings still parse.
        assert!((parse_angle("pi/2", 1).unwrap() - PI / 2.0).abs() < 1e-12);
        assert!((parse_angle("-3pi/4", 1).unwrap() + 3.0 * PI / 4.0).abs() < 1e-12);
        assert_eq!(parse_angle("1e-3", 1).unwrap(), 1e-3);
    }

    #[test]
    fn unsupported_gate_is_reported() {
        let src = "qreg q[2];\nfancy q[0];";
        match parse_qasm(src) {
            Err(QasmError::UnsupportedGate(_, name)) => assert_eq!(name, "fancy"),
            other => panic!("expected UnsupportedGate, got {other:?}"),
        }
    }

    #[test]
    fn wrong_operand_count_is_reported() {
        let src = "qreg q[2];\ncx q[0];";
        assert!(matches!(parse_qasm(src), Err(QasmError::Parse(_, _))));
    }

    #[test]
    fn unknown_register_is_reported() {
        let src = "qreg q[2];\nh r[0];";
        assert!(matches!(
            parse_qasm(src),
            Err(QasmError::UnknownQubit(_, _))
        ));
    }

    #[test]
    fn writer_reader_roundtrip_on_generated_circuits() {
        for name in generators::FAMILY_NAMES {
            let original = generators::by_name(name, 8);
            let qasm = to_qasm(&original);
            let parsed = parse_qasm(&qasm).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(parsed.num_qubits(), original.num_qubits(), "{name}");
            assert_eq!(parsed.num_gates(), original.num_gates(), "{name}");
            for (a, b) in original.gates().iter().zip(parsed.gates()) {
                assert_eq!(a.qubits, b.qubits, "{name}");
                assert_eq!(a.kind.name(), b.kind.name(), "{name}");
                let pa = a.kind.params();
                let pb = b.kind.params();
                for (x, y) in pa.iter().zip(pb.iter()) {
                    assert!((x - y).abs() < 1e-9, "{name}: param mismatch {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "// header\nqreg q[1];\n\nh q[0]; // apply H\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 1);
    }
}
