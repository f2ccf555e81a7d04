//! Validation of the flat config structs ([`ServerConfig`],
//! [`ClientConfig`], [`RouterConfig`]).
//!
//! Every field of those structs is public, so a literal can assemble a
//! combination the stack would then mishandle silently (a frame
//! ceiling too small for a handshake, a zero vnode ring, jitter
//! outside `[0, 1]`). [`NetServer::bind`](crate::NetServer::bind),
//! [`Router::bind`](crate::Router::bind) and
//! [`Client::connect`](crate::Client::connect) therefore run the
//! matching `validate` before they create any socket or thread, and
//! refuse the config with a [`ConfigError`] that names the offending
//! field.

use std::fmt;
use std::time::Duration;

use etsc_obs::Obs;

use crate::client::ClientConfig;
use crate::proto::{PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, PROTO_MINOR};
use crate::router::RouterConfig;
use crate::server::ServerConfig;

/// A config combination the stack refuses to run. Carries the field
/// that failed and why, so the fix is one grep away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The config field that failed validation.
    pub field: &'static str,
    /// What about its value is unusable.
    pub reason: String,
}

impl ConfigError {
    fn new(field: &'static str, reason: impl Into<String>) -> ConfigError {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for std::io::Error {
    fn from(e: ConfigError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e)
    }
}

/// The smallest frame ceiling the handshake fits under; anything lower
/// deadlocks the Hello exchange by construction.
const MIN_FRAME_BYTES: usize = 256;

fn check_agent(agent: &str) -> Result<(), ConfigError> {
    if agent.is_empty() {
        return Err(ConfigError::new("agent", "must not be empty"));
    }
    Ok(())
}

fn check_frame_bytes(max_frame_bytes: usize) -> Result<(), ConfigError> {
    if max_frame_bytes < MIN_FRAME_BYTES {
        return Err(ConfigError::new(
            "max_frame_bytes",
            format!("{max_frame_bytes} is below the {MIN_FRAME_BYTES}-byte handshake floor"),
        ));
    }
    Ok(())
}

/// The accept-side limits a server and a router share.
fn check_listener(max_connections: usize, idle_timeout: Duration) -> Result<(), ConfigError> {
    if max_connections == 0 {
        return Err(ConfigError::new("max_connections", "must be at least 1"));
    }
    if idle_timeout.is_zero() {
        return Err(ConfigError::new(
            "idle_timeout",
            "must be positive (it is the slow-loris guard, not a disable switch)",
        ));
    }
    Ok(())
}

fn check_minor(minor: u32) -> Result<(), ConfigError> {
    if minor > PROTO_MINOR {
        return Err(ConfigError::new(
            "protocol_minor",
            format!("{minor} is newer than this build speaks (max {PROTO_MINOR})"),
        ));
    }
    Ok(())
}

impl ServerConfig {
    /// Checks the combination; [`NetServer::bind`](crate::NetServer::bind)
    /// calls this before it binds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_frame_bytes(self.max_frame_bytes)?;
        check_listener(self.max_connections, self.idle_timeout)?;
        check_minor(self.protocol_minor)?;
        if self.max_sessions_per_conn == 0 {
            return Err(ConfigError::new(
                "max_sessions_per_conn",
                "must be at least 1",
            ));
        }
        if self.max_pending_frames == 0 {
            return Err(ConfigError::new("max_pending_frames", "must be at least 1"));
        }
        if self.event_loop_threads > 64 {
            return Err(ConfigError::new(
                "event_loop_threads",
                "more than 64 loops multiplexing sockets is a misconfiguration",
            ));
        }
        if let Some(adm) = &self.admission {
            // NaN must fail validation too, hence not `<= 0.0`.
            if adm.open_rate.is_nan() || adm.open_rate <= 0.0 {
                return Err(ConfigError::new(
                    "admission.open_rate",
                    "must be positive (omit admission entirely to disable)",
                ));
            }
            if adm.open_burst < 0.0 {
                return Err(ConfigError::new(
                    "admission.open_burst",
                    "must not be negative",
                ));
            }
        }
        Ok(())
    }
}

impl ClientConfig {
    /// Checks the combination; [`Client::connect`](crate::Client::connect)
    /// calls this before it dials.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_agent(&self.agent)?;
        check_frame_bytes(self.max_frame_bytes)?;
        check_minor(self.protocol_minor)?;
        if self.handshake_timeout.is_zero() {
            return Err(ConfigError::new("handshake_timeout", "must be positive"));
        }
        if !(0.0..=1.0).contains(&self.reconnect_jitter) {
            return Err(ConfigError::new(
                "reconnect_jitter",
                format!("{} is outside [0, 1]", self.reconnect_jitter),
            ));
        }
        if self.reconnect_backoff > self.reconnect_backoff_cap {
            return Err(ConfigError::new(
                "reconnect_backoff",
                "base backoff exceeds its cap",
            ));
        }
        if ![PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH].contains(&self.priority) {
            return Err(ConfigError::new(
                "priority",
                format!(
                    "{} is not PRIORITY_LOW/NORMAL/HIGH ({PRIORITY_LOW}/{PRIORITY_NORMAL}/{PRIORITY_HIGH})",
                    self.priority
                ),
            ));
        }
        Ok(())
    }
}

impl RouterConfig {
    /// Checks the combination; [`Router::bind`](crate::Router::bind)
    /// calls this before it binds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_agent(&self.agent)?;
        check_frame_bytes(self.max_frame_bytes)?;
        check_listener(self.max_connections, self.idle_timeout)?;
        if self.vnodes == 0 {
            return Err(ConfigError::new(
                "vnodes",
                "a zero-vnode ring places nothing",
            ));
        }
        if self.breaker_threshold == 0 {
            return Err(ConfigError::new("breaker_threshold", "must be at least 1"));
        }
        if self.probe_interval.is_zero() || self.probe_timeout.is_zero() {
            return Err(ConfigError::new(
                "probe_interval",
                "probe cadence and timeout must both be positive",
            ));
        }
        if self.breaker_backoff > self.breaker_backoff_cap {
            return Err(ConfigError::new(
                "breaker_backoff",
                "base backoff exceeds its cap",
            ));
        }
        if self.drain_timeout.is_zero() {
            return Err(ConfigError::new("drain_timeout", "must be positive"));
        }
        Ok(())
    }
}

/// A [`RouterConfig`] set through chained calls. It exists only because
/// the repository benchmark (`perfbench/`) builds its router config as
/// `RouterBuilder::new().obs(..).build()`; it goes when the benchmark
/// moves to a [`RouterConfig`] literal.
#[derive(Default)]
pub struct RouterBuilder {
    config: RouterConfig,
}

impl RouterBuilder {
    /// A builder carrying every default.
    #[must_use]
    pub fn new() -> RouterBuilder {
        RouterBuilder::default()
    }

    /// See [`RouterConfig::obs`].
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.config.obs = obs;
        self
    }

    /// Runs [`RouterConfig::validate`] and returns the config.
    pub fn build(self) -> Result<RouterConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_clean() {
        assert!(ServerConfig::default().validate().is_ok());
        assert!(ClientConfig::default().validate().is_ok());
        assert!(RouterConfig::default().validate().is_ok());
    }

    #[test]
    fn tiny_frame_ceiling_is_refused() {
        let err = ServerConfig {
            max_frame_bytes: 16,
            ..ServerConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "max_frame_bytes");
    }

    #[test]
    fn future_minor_is_refused() {
        let err = ClientConfig {
            protocol_minor: PROTO_MINOR + 1,
            ..ClientConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "protocol_minor");
        let err = ServerConfig {
            protocol_minor: PROTO_MINOR + 1,
            ..ServerConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "protocol_minor");
    }

    #[test]
    fn wild_jitter_is_refused() {
        let err = ClientConfig {
            reconnect_jitter: 1.5,
            ..ClientConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "reconnect_jitter");
    }

    #[test]
    fn bad_priority_is_refused() {
        let err = ClientConfig {
            priority: 99,
            ..ClientConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "priority");
    }

    #[test]
    fn zero_vnode_ring_is_refused() {
        let err = RouterConfig {
            vnodes: 0,
            ..RouterConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "vnodes");
    }
}
