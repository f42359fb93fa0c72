//! A small command-line argument parser.
//!
//! Supports positional arguments, `--flag value` (and `--flag=value`)
//! options that may repeat, and boolean `--switch`es. Unknown flags are
//! errors; `--` ends flag parsing.

use std::collections::HashMap;

use crate::error::CliError;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    values: HashMap<String, Vec<String>>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name) against the declared
    /// value-taking flags and boolean switches (named without the leading
    /// dashes).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown flags or a value flag with
    /// no value.
    pub fn parse(
        argv: &[String],
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut only_positionals = false;
        let mut iter = argv.iter().peekable();
        while let Some(arg) = iter.next() {
            if only_positionals || !arg.starts_with("--") {
                args.positionals.push(arg.clone());
                continue;
            }
            if arg == "--" {
                only_positionals = true;
                continue;
            }
            let body = &arg[2..];
            let (name, inline_value) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            if switch_flags.contains(&name) {
                if inline_value.is_some() {
                    return Err(CliError::Usage(format!("--{name} takes no value")));
                }
                args.switches.push(name.to_string());
            } else if value_flags.contains(&name) {
                let value = match inline_value {
                    Some(v) => v,
                    None => iter
                        .next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?,
                };
                args.values.entry(name.to_string()).or_default().push(value);
            } else {
                return Err(CliError::Usage(format!("unknown flag --{name}")));
            }
        }
        Ok(args)
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The last value given for a flag, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(|v| v.last()).map(String::as_str)
    }

    /// Every value given for a repeatable flag.
    pub fn values(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Parses a flag's value as an integer (decimal, or hex with `0x`).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn int_value(&self, name: &str) -> Result<Option<u64>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(text) => {
                let parsed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    text.parse()
                };
                parsed.map(Some).map_err(|_| {
                    CliError::Usage(format!("--{name} expects a number, got `{text}`"))
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_flags_and_switches() {
        let args = Args::parse(
            &argv(&["in.s", "--out", "a.gpx", "--verbose", "extra"]),
            &["out"],
            &["verbose"],
        )
        .unwrap();
        assert_eq!(args.positionals(), ["in.s", "extra"]);
        assert_eq!(args.value("out"), Some("a.gpx"));
        assert!(args.switch("verbose"));
        assert!(!args.switch("quiet"));
    }

    #[test]
    fn equals_form_and_repeats() {
        let args =
            Args::parse(&argv(&["--exclude=a:b", "--exclude", "c:d"]), &["exclude"], &[]).unwrap();
        assert_eq!(args.values("exclude"), ["a:b", "c:d"]);
        assert_eq!(args.value("exclude"), Some("c:d"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = Args::parse(&argv(&["--bogus"]), &[], &[]).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(&argv(&["--out"]), &["out"], &[]).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn switch_with_value_is_an_error() {
        let err = Args::parse(&argv(&["--quiet=yes"]), &[], &["quiet"]).unwrap_err();
        assert!(err.to_string().contains("takes no value"));
    }

    #[test]
    fn double_dash_ends_flags() {
        let args = Args::parse(&argv(&["--", "--not-a-flag"]), &[], &[]).unwrap();
        assert_eq!(args.positionals(), ["--not-a-flag"]);
    }

    #[test]
    fn int_values_decimal_and_hex() {
        let args =
            Args::parse(&argv(&["--tick", "100", "--base", "0x2000"]), &["tick", "base"], &[])
                .unwrap();
        assert_eq!(args.int_value("tick").unwrap(), Some(100));
        assert_eq!(args.int_value("base").unwrap(), Some(0x2000));
        assert_eq!(args.int_value("missing").unwrap(), None);
        let bad = Args::parse(&argv(&["--tick", "ten"]), &["tick"], &[]).unwrap();
        assert!(bad.int_value("tick").is_err());
    }
}
