//! A small typed `--key value` argument parser (no external parser
//! dependency; the approved crate set has none).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// An option was given without a value.
    MissingValue(String),
    /// A token did not look like `--key` in option position.
    UnexpectedToken(String),
    /// An option's value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required option was absent.
    MissingOption(String),
    /// Options were supplied that the command does not understand.
    UnknownOptions(Vec<String>),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgsError::UnexpectedToken(t) => write!(f, "unexpected argument {t:?}"),
            ArgsError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value:?}: expected {expected}")
            }
            ArgsError::MissingOption(k) => write!(f, "required option --{k} is missing"),
            ArgsError::UnknownOptions(ks) => {
                write!(f, "unknown option(s): ")?;
                for (i, k) in ks.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "--{k}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for ArgsError {}

/// Parsed `--key value` / `--flag` arguments with typed accessors.
///
/// Consumption is tracked so [`Args::finish`] can reject typos instead
/// of silently ignoring them.
#[derive(Debug, Clone)]
pub struct Args {
    values: BTreeMap<String, Option<String>>,
    consumed: BTreeMap<String, bool>,
}

impl Args {
    /// Parses raw tokens. A token `--key` followed by a non-`--` token
    /// is an option with a value; a `--key` followed by another option
    /// (or the end) is a boolean flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::UnexpectedToken`] for stray positional
    /// tokens.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgsError> {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgsError::UnexpectedToken(tok.clone()));
            };
            if key.is_empty() {
                return Err(ArgsError::UnexpectedToken(tok.clone()));
            }
            let value = match tokens.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    Some(v.clone())
                }
                _ => None,
            };
            values.insert(key.to_string(), value);
            i += 1;
        }
        let consumed = values.keys().map(|k| (k.clone(), false)).collect();
        Ok(Args { values, consumed })
    }

    /// The names of the options given, in sorted order.
    pub fn given(&self) -> Vec<String> {
        self.values.keys().cloned().collect()
    }

    fn take(&mut self, key: &str) -> Option<Option<String>> {
        if let Some(c) = self.consumed.get_mut(key) {
            *c = true;
        }
        self.values.get(key).cloned()
    }

    /// A boolean flag: present (with or without a value) means `true`.
    pub fn flag(&mut self, key: &str) -> bool {
        self.take(key).is_some()
    }

    /// An option accepted both as a bare flag and with a value (like
    /// `--cache` / `--cache DIR`): `None` when absent, `Some(None)` for
    /// the bare flag, `Some(Some(value))` when a value was given.
    pub fn flag_or_value(&mut self, key: &str) -> Option<Option<String>> {
        self.take(key)
    }

    /// An optional typed value.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::MissingValue`] when the flag form was used,
    /// or [`ArgsError::BadValue`] when parsing fails.
    pub fn opt<T: std::str::FromStr>(
        &mut self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgsError> {
        match self.take(key) {
            None => Ok(None),
            Some(None) => Err(ArgsError::MissingValue(key.to_string())),
            Some(Some(raw)) => raw.parse().map(Some).map_err(|_| ArgsError::BadValue {
                key: key.to_string(),
                value: raw,
                expected,
            }),
        }
    }

    /// A typed value with a default.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Args::opt`].
    pub fn get_or<T: std::str::FromStr>(
        &mut self,
        key: &str,
        expected: &'static str,
        default: T,
    ) -> Result<T, ArgsError> {
        Ok(self.opt(key, expected)?.unwrap_or(default))
    }

    /// A required typed value.
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingOption`] when absent; otherwise as
    /// [`Args::opt`].
    pub fn require<T: std::str::FromStr>(
        &mut self,
        key: &str,
        expected: &'static str,
    ) -> Result<T, ArgsError> {
        self.opt(key, expected)?
            .ok_or_else(|| ArgsError::MissingOption(key.to_string()))
    }

    /// Rejects any options that were never consumed (typo protection).
    ///
    /// # Errors
    ///
    /// [`ArgsError::UnknownOptions`] listing the leftovers.
    pub fn finish(self) -> Result<(), ArgsError> {
        let leftover: Vec<String> = self
            .consumed
            .iter()
            .filter(|(_, &c)| !c)
            .map(|(k, _)| k.clone())
            .collect();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(ArgsError::UnknownOptions(leftover))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parses_values_and_flags() {
        let mut a = args("--posts 100 --json --field 500.0");
        assert_eq!(a.require::<usize>("posts", "integer").unwrap(), 100);
        assert!(a.flag("json"));
        assert_eq!(a.get_or("field", "number", 0.0).unwrap(), 500.0);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn default_applies_when_absent() {
        let mut a = args("--posts 10");
        assert_eq!(a.get_or("seed", "integer", 42u64).unwrap(), 42);
        let _ = a.require::<usize>("posts", "integer");
        assert!(a.finish().is_ok());
    }

    #[test]
    fn missing_required_option() {
        let mut a = args("");
        assert_eq!(
            a.require::<usize>("posts", "integer"),
            Err(ArgsError::MissingOption("posts".into()))
        );
    }

    #[test]
    fn bad_value_reports_expectation() {
        let mut a = args("--posts many");
        let err = a.require::<usize>("posts", "a post count").unwrap_err();
        assert!(matches!(err, ArgsError::BadValue { .. }));
        assert!(format!("{err}").contains("a post count"));
    }

    #[test]
    fn flag_without_value_errors_as_typed_option() {
        let mut a = args("--posts --json");
        assert_eq!(
            a.opt::<usize>("posts", "integer"),
            Err(ArgsError::MissingValue("posts".into()))
        );
    }

    #[test]
    fn positional_tokens_rejected() {
        assert!(matches!(
            Args::parse(vec!["oops".to_string()]),
            Err(ArgsError::UnexpectedToken(_))
        ));
        assert!(matches!(
            Args::parse(vec!["--".to_string()]),
            Err(ArgsError::UnexpectedToken(_))
        ));
    }

    #[test]
    fn unknown_options_detected() {
        let mut a = args("--posts 3 --tpyo 1");
        let _ = a.require::<usize>("posts", "integer");
        assert_eq!(
            a.finish(),
            Err(ArgsError::UnknownOptions(vec!["tpyo".into()]))
        );
    }

    #[test]
    fn error_messages_nonempty() {
        let errors = [
            ArgsError::MissingValue("k".into()),
            ArgsError::UnexpectedToken("x".into()),
            ArgsError::BadValue {
                key: "k".into(),
                value: "v".into(),
                expected: "n",
            },
            ArgsError::MissingOption("k".into()),
            ArgsError::UnknownOptions(vec!["a".into(), "b".into()]),
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
        }
    }
}
