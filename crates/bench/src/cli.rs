//! Minimal flag parsing shared by the experiment binaries (no external
//! CLI dependency needed for `--flag value` pairs).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command-line flags. Remembers which names the program asked
/// for, so [`Args::finish`] can reject the ones it never did.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    consumed: RefCell<HashSet<String>>,
}

impl Args {
    /// Parses `std::env::args()`; a malformed command line prints a clean
    /// error and exits 2.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit iterator of `--flag value` pairs (testable).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(it: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = it.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {a:?}"));
            };
            let Some(v) = it.next_if(|v| !v.starts_with("--")) else {
                return Err(format!("flag --{name} needs a value"));
            };
            args.flags.insert(name.to_string(), v);
        }
        Ok(args)
    }

    /// Value of `--name`, parsed, or `default`. A present-but-unparsable
    /// value prints a clean error and exits 2 (these are CLI entry points;
    /// a panic backtrace helps nobody).
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.get_str(name)
            .map(|v| {
                v.parse().unwrap_or_else(|e| {
                    eprintln!("error: --{name} {v:?}: {e}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(default)
    }

    /// Raw string value of `--name`.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().insert(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    /// Call once every flag has been read: a flag on the command line that
    /// the program never asked for (misspelt, or since deleted)
    /// prints a clean error and exits 2 instead of silently running the
    /// defaults.
    pub fn finish(&self) {
        let unknown = self.unknown();
        if !unknown.is_empty() {
            eprintln!("error: unknown flag(s): {}", unknown.join(" "));
            std::process::exit(2);
        }
    }

    /// Given names nothing read, as `--name`, sorted.
    fn unknown(&self) -> Vec<String> {
        let consumed = self.consumed.borrow();
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|name| !consumed.contains(*name))
            .map(|name| format!("--{name}"))
            .collect();
        unknown.sort();
        unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::from_iter(s.split_whitespace().map(String::from))
    }

    fn parse_ok(s: &str) -> Args {
        parse(s).expect("well-formed command line")
    }

    #[test]
    fn flag_values_and_defaults() {
        let a = parse_ok("--scale 8 --iters 5");
        assert_eq!(a.get("scale", 1u64), 8);
        assert_eq!(a.get("iters", 20u32), 5);
        assert_eq!(a.get("missing", 3i32), 3);
    }

    #[test]
    fn string_values() {
        let a = parse_ok("--datasets dblp,roadNet");
        assert_eq!(a.get_str("datasets"), Some("dblp,roadNet"));
    }

    #[test]
    fn misspelt_flag_is_unknown() {
        let a = parse_ok("--scale 8 --delta-round 12");
        assert_eq!(a.get("scale", 1u64), 8);
        assert_eq!(a.get("delta-rounds", 16usize), 16);
        assert_eq!(a.unknown(), ["--delta-round"]);
    }

    #[test]
    fn valueless_flag_rejected() {
        assert_eq!(
            parse("--full --iters 5").unwrap_err(),
            "flag --full needs a value"
        );
    }

    #[test]
    fn all_consumed_leaves_nothing_unknown() {
        let a = parse_ok("--scale 8 --datasets dblp");
        let _ = (a.get("scale", 1u64), a.get_str("datasets"));
        assert!(a.unknown().is_empty());
        a.finish(); // must return, not exit
    }

    #[test]
    fn positional_rejected() {
        assert_eq!(
            parse("oops").unwrap_err(),
            "unexpected positional argument \"oops\""
        );
    }
}
