//! The one `--key value` command-line grammar every entry point in the
//! workspace parses (`sccf`, `sccf serve-shard`, `sccf route`, the
//! `--world-*` flags): every flag takes exactly one value, `-k` is
//! accepted for `--k`, the first occurrence of a key wins, and a flag
//! no lookup asked for is an error ([`Flags::finish`]) — a typo must
//! not silently run with the default.

use std::cell::Cell;
use std::str::FromStr;

/// A parsed `--key value` argument list.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// `(key, value, read)` — `read` flips when a lookup asks for `key`.
    pairs: Vec<(String, String, Cell<bool>)>,
}

impl Flags {
    /// Errors on a word that is not a flag and on a flag without a
    /// value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::with_capacity(args.len() / 2);
        for pair in args.chunks(2) {
            let key = pair[0]
                .strip_prefix("--")
                .or_else(|| pair[0].strip_prefix('-'))
                .ok_or_else(|| format!("expected a flag, got `{}`", pair[0]))?;
            let value = pair
                .get(1)
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone(), Cell::new(false)));
        }
        Ok(Self { pairs })
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        let mut first = None;
        for (k, v, read) in &self.pairs {
            if k == key {
                read.set(true);
                first = first.or(Some(v.as_str()));
            }
        }
        first
    }

    /// Errors, naming it, on the first flag no lookup has asked for.
    /// Every entry point calls this once it has read all of its flags
    /// and before it acts on them.
    pub fn finish(&self) -> Result<(), String> {
        match self.pairs.iter().find(|(_, _, read)| !read.get()) {
            Some((key, _, _)) => Err(format!("unknown flag --{key}")),
            None => Ok(()),
        }
    }

    /// The value of `--key`, or the standard "missing" error.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// `--key` parsed as a `T`, or `default` when the flag is absent.
    pub fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        parse_or(self.get(key), key, default)
    }
}

/// `value` parsed as a `T` (`default` when absent), with the standard
/// "bad value for --key" error — for callers that hold a flag lookup
/// rather than a [`Flags`].
pub fn parse_or<T: FromStr>(value: Option<&str>, key: &str, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_pairs_with_defaults_and_typed_errors() {
        let f = Flags::parse(&args(&["--users", "12", "-n", "5", "--users", "99"])).unwrap();
        assert_eq!(f.get("users"), Some("12"), "first occurrence wins");
        assert_eq!(f.parsed("n", 10usize), Ok(5));
        assert_eq!(f.parsed("absent", 10usize), Ok(10));
        assert_eq!(f.required("users"), Ok("12"));
        assert_eq!(f.required("out"), Err("missing --out".to_string()));
        assert_eq!(f.finish(), Ok(()), "both --users pairs count as read");
        let bad = Flags::parse(&args(&["--n", "five"])).unwrap();
        assert_eq!(
            bad.parsed("n", 1usize),
            Err("bad value for --n: five".to_string())
        );
    }

    #[test]
    fn rejects_bare_words_and_valueless_flags() {
        assert!(Flags::parse(&args(&["oops", "1"])).is_err_and(|e| e.contains("`oops`")));
        assert!(Flags::parse(&args(&["--port"])).is_err_and(|e| e.contains("--port")));
        assert!(Flags::parse(&[]).unwrap().get("x").is_none());
        let typo = Flags::parse(&args(&["--seed", "7", "--sede", "8"])).unwrap();
        assert_eq!(typo.parsed("seed", 42u64), Ok(7));
        assert_eq!(typo.finish(), Err("unknown flag --sede".to_string()));
    }
}
