//! A tiny dependency-free flag parser for the `pombm` binary.
//!
//! Grammar: `pombm <command> [positional]... [--flag value]...
//! [--switch]...`. A token starting with `--` is a flag; it consumes the
//! next token as its value unless that token also starts with `--` (then
//! it is a boolean switch). Non-flag tokens after the command are
//! collected as positionals (`pombm merge a.json b.json`); commands that
//! take none reject them via [`Args::check_no_positionals`].

use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command line: one command word, positionals, and flags.
///
/// Flags live in a `BTreeMap` so that [`Args::check_known`] reports the
/// alphabetically first unknown flag regardless of hash seeding — error
/// messages are part of the deterministic surface too.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The leading non-flag token, e.g. `run`.
    pub command: Option<String>,
    positionals: Vec<String>,
    flags: BTreeMap<String, Option<String>>,
}

impl Args {
    /// Parses raw tokens (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("empty flag name `--`".into());
                }
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next(),
                    _ => None,
                };
                if args.flags.insert(name.to_string(), value).is_some() {
                    return Err(format!("flag --{name} given twice"));
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                args.positionals.push(tok);
            }
        }
        Ok(args)
    }

    /// Positional arguments after the command word, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Rejects positional arguments (for commands that take only flags).
    pub fn check_no_positionals(&self) -> Result<(), String> {
        match self.positionals.first() {
            None => Ok(()),
            Some(tok) => Err(format!("unexpected positional argument `{tok}`")),
        }
    }

    /// True iff the flag was present (with or without a value).
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The flag's string value, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// Parses an optional flag's value into `T`: `None` if the flag is
    /// absent, an error if it is given without a value or with one that
    /// does not parse.
    pub fn get_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(None) => Err(format!("flag --{name} needs a value")),
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }

    /// Parses the flag's value into `T`, or returns `default` if absent.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    /// Parses a required flag.
    pub fn require<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.get_opt(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Rejects flags outside `allowed` (catches typos early).
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), String> {
        for name in self.flags.keys() {
            if !allowed.contains(&name.as_str()) {
                return Err(format!(
                    "unknown flag --{name}; allowed: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_and_flags() {
        let a = parse("run --epsilon 0.6 --quick --input x.json").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("input"), Some("x.json"));
        assert!(a.switch("quick"));
        assert_eq!(a.get_or("epsilon", 1.0).unwrap(), 0.6);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn flag_followed_by_flag_is_a_switch() {
        let a = parse("gen --real --out f.json").unwrap();
        assert!(a.switch("real"));
        assert_eq!(a.get("real"), None);
        assert_eq!(a.get("out"), Some("f.json"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(parse("run --seed 1 --seed 2")
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn positionals_collected_and_rejectable() {
        let a = parse("merge a.json b.json --json").unwrap();
        assert_eq!(a.positionals(), ["a.json", "b.json"]);
        assert!(a.switch("json"));
        assert!(a.check_no_positionals().unwrap_err().contains("a.json"));
        assert!(parse("run").unwrap().check_no_positionals().is_ok());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse("run").unwrap();
        assert!(a.require::<f64>("epsilon").unwrap_err().contains("missing"));
    }

    #[test]
    fn parse_error_reports_flag_name() {
        let a = parse("run --seed abc").unwrap();
        assert!(a.get_or("seed", 0u64).unwrap_err().contains("--seed"));
    }

    #[test]
    fn unknown_flags_detected() {
        let a = parse("run --sed 1").unwrap();
        assert!(a.check_known(&["seed"]).unwrap_err().contains("--sed"));
        assert!(a.check_known(&["sed"]).is_ok());
    }

    #[test]
    fn no_command_is_none() {
        let a = parse("").unwrap();
        assert!(a.command.is_none());
    }
}
