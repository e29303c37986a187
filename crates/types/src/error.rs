//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// An invalid simulator configuration.
///
/// Returned by [`crate::config::SimConfig::validate`] and by constructors of
/// components that receive impossible parameters (zero-sized caches, a write
/// log larger than the SSD DRAM, and so on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = ConfigError::new("write log larger than SSD DRAM");
        assert_eq!(e.message, "write log larger than SSD DRAM");
        assert_eq!(
            e.to_string(),
            "invalid configuration: write log larger than SSD DRAM"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
    }
}
