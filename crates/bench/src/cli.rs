//! Minimal flag parsing shared by the experiment binaries (no external
//! CLI dependency needed for `--flag value` pairs and boolean switches).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command-line flags. Remembers which names the program asked
/// for, so [`Args::finish`] can reject the ones it never did.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    consumed: RefCell<HashSet<String>>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(it: impl IntoIterator<Item = String>) -> Self {
        let mut args = Args::default();
        let mut it = it.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                panic!("unexpected positional argument {a:?}");
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = it.next().expect("peeked");
                    args.flags.insert(name.to_string(), v);
                }
                _ => args.switches.push(name.to_string()),
            }
        }
        args
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

    /// Whether switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.consumed.borrow_mut().insert(name.to_string());
        self.switches.iter().any(|s| s == name)
    }

    /// Call once every flag has been read: a flag or switch on the command
    /// line that the program never asked for (misspelt, or since deleted)
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
            .chain(&self.switches)
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

    fn parse(s: &str) -> Args {
        Args::from_iter(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_and_switches() {
        let a = parse("--scale 8 --full --iters 5");
        assert_eq!(a.get("scale", 1u64), 8);
        assert_eq!(a.get("iters", 20u32), 5);
        assert!(a.has("full"));
        assert!(!a.has("quick"));
        assert_eq!(a.get("missing", 3i32), 3);
    }

    #[test]
    fn string_values() {
        let a = parse("--datasets dblp,roadNet");
        assert_eq!(a.get_str("datasets"), Some("dblp,roadNet"));
    }

    #[test]
    fn misspelt_flag_is_unknown() {
        let a = parse("--scale 8 --delta-round 12");
        assert_eq!(a.get("scale", 1u64), 8);
        assert_eq!(a.get("delta-rounds", 16usize), 16);
        assert_eq!(a.unknown(), ["--delta-round"]);
    }

    #[test]
    fn misspelt_switch_is_unknown() {
        let a = parse("--full --ful");
        assert!(a.has("full"));
        assert_eq!(a.unknown(), ["--ful"]);
    }

    #[test]
    fn all_consumed_leaves_nothing_unknown() {
        let a = parse("--scale 8 --full --datasets dblp");
        let _ = (a.get("scale", 1u64), a.has("full"), a.get_str("datasets"));
        assert!(a.unknown().is_empty());
        a.finish(); // must return, not exit
    }

    #[test]
    #[should_panic(expected = "unexpected positional")]
    fn positional_rejected() {
        parse("oops");
    }
}
