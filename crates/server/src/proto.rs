//! The wire protocol: a tiny line-oriented text protocol so load generators
//! and tests can drive the engine like a client driving a server, without
//! real sockets (requests and responses travel over an in-process duplex
//! channel — see [`crate::wire`]).
//!
//! Requests (one per line, whitespace-separated tokens):
//!
//! ```text
//! BEGIN [SERIALIZABLE|REPEATABLE READ|READ COMMITTED|S2PL] [READ ONLY] [DEFERRABLE]
//! GET <table> <key values...>
//! PUT <table> <full row values...>        # upsert by primary key
//! DEL <table> <key values...>
//! SCAN <table>
//! COMMIT
//! ABORT
//! STATS                                   # full engine stats report
//! ACTIVITY                                # pg_stat_activity-style session list
//! HIST <name>                             # latency-histogram percentiles
//! ```
//!
//! The three introspection verbs work outside a transaction (they read
//! engine/pool state, not table data). `STATS` returns the whole
//! [`pgssi_engine::StatsReport`] flattened to one line; `ACTIVITY` returns a
//! `ROWS` response with one `sid,state,txid,isolation,wait` row per live
//! session; `HIST` returns `HIST <name> n=… p50=… p95=… p99=… max=…`
//! (nanoseconds).
//!
//! Values parse as `i64`, `true`/`false`, `NULL`, or fall back to text.
//! Responses are single lines: `OK [n]`, `ROW v v ...`, `NIL`,
//! `ROWS <n> row|row|...` (values comma-separated within a row), or
//! `ERR <message>`.
//!
//! **Protocol invariant — values are delimiter-free tokens.** There is no
//! quoting or escaping: text values must not contain whitespace, `,`, or
//! `|`, and must not spell the literal tokens `NULL`/`true`/`false` or a
//! bare integer, or responses will misparse / fail to round-trip. Inbound
//! requests are tokenized on whitespace so clients physically cannot send
//! such text; the caveat only bites rows created through the embedded
//! engine API and then read over the wire. The load generators use
//! integers exclusively.

use std::io::Write;

use pgssi_common::{Key, Row, Value};
use pgssi_engine::{BeginOptions, IsolationLevel};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Start a transaction.
    Begin(BeginSpec),
    /// Point read by primary key.
    Get { table: String, key: Key },
    /// Upsert a full row (key derived from the table's primary key columns).
    Put { table: String, row: Row },
    /// Delete by primary key.
    Del { table: String, key: Key },
    /// Full table scan.
    Scan { table: String },
    /// Commit the open transaction.
    Commit,
    /// Roll back the open transaction.
    Abort,
    /// Full engine stats report (one flattened line).
    Stats,
    /// Per-session activity listing (pg_stat_activity analogue).
    Activity,
    /// Percentiles for one named latency histogram.
    Hist { name: String },
}

/// Options carried by `BEGIN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BeginSpec {
    /// Requested isolation level (default SERIALIZABLE — it is the paper's
    /// contribution, so it is the protocol's default too).
    pub isolation: IsolationLevel,
    /// `READ ONLY` was given.
    pub read_only: bool,
    /// `DEFERRABLE` was given (implies read-only serializable; validated by
    /// the engine).
    pub deferrable: bool,
}

impl BeginSpec {
    /// Engine-side begin options for this spec.
    pub fn options(self) -> BeginOptions {
        let mut opts = BeginOptions::new(self.isolation);
        if self.read_only {
            opts = opts.read_only();
        }
        if self.deferrable {
            opts = opts.deferrable();
        }
        opts
    }
}

/// Parse one value token.
pub fn parse_value(tok: &str) -> Value {
    if tok == "NULL" {
        return Value::Null;
    }
    if tok == "true" {
        return Value::Bool(true);
    }
    if tok == "false" {
        return Value::Bool(false);
    }
    match tok.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::text(tok),
    }
}

/// Append one value as a protocol token (inverse of [`parse_value`] for the
/// token set the protocol produces).
pub fn write_value(out: &mut Vec<u8>, v: &Value) {
    // Writing into a `Vec` cannot fail.
    let _ = match v {
        Value::Null => out.write_all(b"NULL"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Int(i) => write!(out, "{i}"),
        Value::Text(s) => out.write_all(s.as_bytes()),
    };
}

/// Append a row's tokens, `sep` between them (a space in `ROW`, a comma
/// inside `ROWS`).
pub fn write_row(out: &mut Vec<u8>, row: &Row, sep: u8) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        write_value(out, v);
    }
}

fn parse_begin(tokens: &[&str]) -> Result<Command, String> {
    let mut spec = BeginSpec {
        isolation: IsolationLevel::Serializable,
        read_only: false,
        deferrable: false,
    };
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i].to_ascii_uppercase().as_str() {
            "ISOLATION" => i += 1, // optional noise word: BEGIN ISOLATION SERIALIZABLE
            "SERIALIZABLE" => {
                spec.isolation = IsolationLevel::Serializable;
                i += 1;
            }
            "S2PL" => {
                spec.isolation = IsolationLevel::Serializable2pl;
                i += 1;
            }
            "REPEATABLE" => {
                if tokens.get(i + 1).map(|t| t.to_ascii_uppercase()) != Some("READ".into()) {
                    return Err("expected REPEATABLE READ".into());
                }
                spec.isolation = IsolationLevel::RepeatableRead;
                i += 2;
            }
            "READ" => match tokens.get(i + 1).map(|t| t.to_ascii_uppercase()) {
                Some(ref t) if t == "COMMITTED" => {
                    spec.isolation = IsolationLevel::ReadCommitted;
                    i += 2;
                }
                Some(ref t) if t == "ONLY" => {
                    spec.read_only = true;
                    i += 2;
                }
                _ => return Err("expected READ COMMITTED or READ ONLY".into()),
            },
            "DEFERRABLE" => {
                spec.deferrable = true;
                spec.read_only = true;
                i += 1;
            }
            other => return Err(format!("unknown BEGIN option {other:?}")),
        }
    }
    Ok(Command::Begin(spec))
}

fn table_and_values(tokens: &[&str], verb: &str) -> Result<(String, Vec<Value>), String> {
    let Some((table, rest)) = tokens.split_first() else {
        return Err(format!("{verb} needs a table name"));
    };
    if rest.is_empty() {
        return Err(format!("{verb} needs at least one value"));
    }
    Ok((
        table.to_string(),
        rest.iter().map(|t| parse_value(t)).collect(),
    ))
}

/// Parse one request line.
pub fn parse(line: &str) -> Result<Command, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((verb, rest)) = tokens.split_first() else {
        return Err("empty request".into());
    };
    match verb.to_ascii_uppercase().as_str() {
        "BEGIN" => parse_begin(rest),
        "GET" => {
            let (table, key) = table_and_values(rest, "GET")?;
            Ok(Command::Get { table, key })
        }
        "PUT" => {
            let (table, row) = table_and_values(rest, "PUT")?;
            Ok(Command::Put { table, row })
        }
        "DEL" => {
            let (table, key) = table_and_values(rest, "DEL")?;
            Ok(Command::Del { table, key })
        }
        "SCAN" => match rest {
            [table] => Ok(Command::Scan {
                table: table.to_string(),
            }),
            _ => Err("SCAN takes exactly a table name".into()),
        },
        "COMMIT" => {
            if rest.is_empty() {
                Ok(Command::Commit)
            } else {
                Err("COMMIT takes no arguments".into())
            }
        }
        "ABORT" | "ROLLBACK" => {
            if rest.is_empty() {
                Ok(Command::Abort)
            } else {
                Err("ABORT takes no arguments".into())
            }
        }
        "STATS" => {
            if rest.is_empty() {
                Ok(Command::Stats)
            } else {
                Err("STATS takes no arguments".into())
            }
        }
        "ACTIVITY" => {
            if rest.is_empty() {
                Ok(Command::Activity)
            } else {
                Err("ACTIVITY takes no arguments".into())
            }
        }
        "HIST" => match rest {
            [name] => Ok(Command::Hist {
                name: name.to_string(),
            }),
            _ => Err("HIST takes exactly a histogram name".into()),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgssi_common::row;

    #[test]
    fn begin_variants_parse() {
        let Command::Begin(s) = parse("BEGIN").unwrap() else {
            panic!()
        };
        assert_eq!(s.isolation, IsolationLevel::Serializable);
        assert!(!s.read_only && !s.deferrable);

        let Command::Begin(s) = parse("BEGIN ISOLATION REPEATABLE READ").unwrap() else {
            panic!()
        };
        assert_eq!(s.isolation, IsolationLevel::RepeatableRead);

        let Command::Begin(s) = parse("BEGIN READ COMMITTED").unwrap() else {
            panic!()
        };
        assert_eq!(s.isolation, IsolationLevel::ReadCommitted);

        let Command::Begin(s) = parse("BEGIN S2PL").unwrap() else {
            panic!()
        };
        assert_eq!(s.isolation, IsolationLevel::Serializable2pl);

        let Command::Begin(s) = parse("BEGIN SERIALIZABLE READ ONLY DEFERRABLE").unwrap() else {
            panic!()
        };
        assert!(s.read_only && s.deferrable);
    }

    #[test]
    fn data_commands_parse_values() {
        assert_eq!(
            parse("GET si 5").unwrap(),
            Command::Get {
                table: "si".into(),
                key: row![5]
            }
        );
        assert_eq!(
            parse("PUT si 5 7").unwrap(),
            Command::Put {
                table: "si".into(),
                row: row![5, 7]
            }
        );
        assert_eq!(
            parse("PUT t 1 true NULL hello").unwrap(),
            Command::Put {
                table: "t".into(),
                row: vec![
                    Value::Int(1),
                    Value::Bool(true),
                    Value::Null,
                    Value::text("hello")
                ]
            }
        );
        assert_eq!(
            parse("DEL si 5").unwrap(),
            Command::Del {
                table: "si".into(),
                key: row![5]
            }
        );
        assert_eq!(
            parse("SCAN si").unwrap(),
            Command::Scan { table: "si".into() }
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("FROB x").is_err());
        assert!(parse("GET si").is_err());
        assert!(parse("SCAN").is_err());
        assert!(parse("COMMIT now").is_err());
        assert!(parse("BEGIN SIDEWAYS").is_err());
        assert!(parse("BEGIN REPEATABLE WRITE").is_err());
        assert!(parse("STATS verbose").is_err());
        assert!(parse("ACTIVITY all").is_err());
        assert!(parse("HIST").is_err());
        assert!(parse("HIST commit extra").is_err());
    }

    #[test]
    fn introspection_verbs_parse() {
        assert_eq!(parse("STATS").unwrap(), Command::Stats);
        assert_eq!(parse("activity").unwrap(), Command::Activity);
        assert_eq!(
            parse("HIST commit").unwrap(),
            Command::Hist {
                name: "commit".into()
            }
        );
    }

    #[test]
    fn value_round_trip() {
        for tok in ["5", "-3", "true", "false", "NULL", "abc"] {
            let mut out = Vec::new();
            write_value(&mut out, &parse_value(tok));
            assert_eq!(out, tok.as_bytes());
        }
        let mut out = Vec::new();
        write_row(&mut out, &row![1, 2], b' ');
        assert_eq!(out, b"1 2");
    }
}
