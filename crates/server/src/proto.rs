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

fn parse_begin<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<Command, String> {
    let mut spec = BeginSpec {
        isolation: IsolationLevel::Serializable,
        read_only: false,
        deferrable: false,
    };
    while let Some(tok) = tokens.next() {
        let is = |word: &str| tok.eq_ignore_ascii_case(word);
        if is("ISOLATION") {
            // optional noise word: BEGIN ISOLATION SERIALIZABLE
        } else if is("SERIALIZABLE") {
            spec.isolation = IsolationLevel::Serializable;
        } else if is("S2PL") {
            spec.isolation = IsolationLevel::Serializable2pl;
        } else if is("REPEATABLE") {
            if !tokens
                .next()
                .is_some_and(|t| t.eq_ignore_ascii_case("READ"))
            {
                return Err("expected REPEATABLE READ".into());
            }
            spec.isolation = IsolationLevel::RepeatableRead;
        } else if is("READ") {
            match tokens.next() {
                Some(t) if t.eq_ignore_ascii_case("COMMITTED") => {
                    spec.isolation = IsolationLevel::ReadCommitted;
                }
                Some(t) if t.eq_ignore_ascii_case("ONLY") => spec.read_only = true,
                _ => return Err("expected READ COMMITTED or READ ONLY".into()),
            }
        } else if is("DEFERRABLE") {
            spec.deferrable = true;
            spec.read_only = true;
        } else {
            return Err(format!(
                "unknown BEGIN option {:?}",
                tok.to_ascii_uppercase()
            ));
        }
    }
    Ok(Command::Begin(spec))
}

/// The table name and the values after it, parsed straight into a [`Row`].
fn table_and_values<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
    verb: &str,
) -> Result<(String, Row), String> {
    let Some(table) = tokens.next() else {
        return Err(format!("{verb} needs a table name"));
    };
    let values: Row = tokens.map(parse_value).collect();
    if values.is_empty() {
        return Err(format!("{verb} needs at least one value"));
    }
    Ok((table.to_string(), values))
}

/// `cmd` if no token is left, else `err`.
fn no_args<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
    cmd: Command,
    err: &str,
) -> Result<Command, String> {
    match tokens.next() {
        None => Ok(cmd),
        Some(_) => Err(err.into()),
    }
}

/// The one token left, or `err`.
fn one_arg<'a>(mut tokens: impl Iterator<Item = &'a str>, err: &str) -> Result<String, String> {
    match (tokens.next(), tokens.next()) {
        (Some(arg), None) => Ok(arg.to_string()),
        _ => Err(err.into()),
    }
}

/// Whether `line` is a `BEGIN`, tokenised as [`parse`] does: its first
/// whitespace token, compared ASCII case-insensitively. Its options are not
/// checked (a malformed `BEGIN` is still one), so the client and the server
/// cannot disagree about which line opens a transaction.
pub fn is_begin(line: &str) -> bool {
    line.split_whitespace()
        .next()
        .is_some_and(|verb| verb.eq_ignore_ascii_case("BEGIN"))
}

/// Parse one request line. The tokens are walked in place and verbs matched
/// without case folding, so a `GET`/`PUT`/`DEL` of integer values allocates
/// only its table name (its values land in an inline [`Row`]).
pub fn parse(line: &str) -> Result<Command, String> {
    let mut tokens = line.split_whitespace();
    let Some(verb) = tokens.next() else {
        return Err("empty request".into());
    };
    let is = |name: &str| verb.eq_ignore_ascii_case(name);
    if is("BEGIN") {
        parse_begin(tokens)
    } else if is("GET") {
        let (table, key) = table_and_values(tokens, "GET")?;
        Ok(Command::Get { table, key })
    } else if is("PUT") {
        let (table, row) = table_and_values(tokens, "PUT")?;
        Ok(Command::Put { table, row })
    } else if is("DEL") {
        let (table, key) = table_and_values(tokens, "DEL")?;
        Ok(Command::Del { table, key })
    } else if is("SCAN") {
        let table = one_arg(tokens, "SCAN takes exactly a table name")?;
        Ok(Command::Scan { table })
    } else if is("COMMIT") {
        no_args(tokens, Command::Commit, "COMMIT takes no arguments")
    } else if is("ABORT") || is("ROLLBACK") {
        no_args(tokens, Command::Abort, "ABORT takes no arguments")
    } else if is("STATS") {
        no_args(tokens, Command::Stats, "STATS takes no arguments")
    } else if is("ACTIVITY") {
        no_args(tokens, Command::Activity, "ACTIVITY takes no arguments")
    } else if is("HIST") {
        let name = one_arg(tokens, "HIST takes exactly a histogram name")?;
        Ok(Command::Hist { name })
    } else {
        Err(format!("unknown command {:?}", verb.to_ascii_uppercase()))
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
    fn is_begin_agrees_with_parse() {
        for line in [
            "BEGIN",
            "begin serializable",
            "  Begin READ ONLY",
            "BEGINX",
            "GET kv 1",
            "",
        ] {
            assert_eq!(
                is_begin(line),
                matches!(parse(line), Ok(Command::Begin(_))),
                "{line:?}"
            );
        }
        assert!(is_begin("  Begin READ ONLY"));
        assert!(!is_begin("BEGINX"));
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
                .into()
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
