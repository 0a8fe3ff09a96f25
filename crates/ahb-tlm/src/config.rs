//! Transaction-level model configuration.

use amba::params::AhbPlusParams;
use ddrc::DdrConfig;

/// Configuration of a transaction-level AHB+ platform.
#[derive(Debug, Clone, PartialEq)]
pub struct TlmConfig {
    /// Bus parameters (arbitration filters, write buffer, pipelining, BI).
    pub params: AhbPlusParams,
    /// DDR controller configuration.
    pub ddr: DdrConfig,
    /// Hard simulation length limit in bus cycles. The run also stops as
    /// soon as every master has drained its trace.
    pub max_cycles: u64,
}

impl TlmConfig {
    /// The default evaluation platform: full AHB+ feature set, DDR-266,
    /// generous cycle limit.
    #[must_use]
    pub fn ahb_plus() -> Self {
        TlmConfig {
            params: AhbPlusParams::ahb_plus(),
            ddr: DdrConfig::ahb_plus(),
            max_cycles: 5_000_000,
        }
    }

    /// Plain AMBA 2.0 AHB baseline configuration.
    #[must_use]
    pub fn plain_ahb() -> Self {
        TlmConfig {
            params: AhbPlusParams::plain_ahb(),
            ddr: DdrConfig::without_interleaving(),
            max_cycles: 5_000_000,
        }
    }

    /// Returns a copy with different bus parameters.
    #[must_use]
    pub fn with_params(mut self, params: AhbPlusParams) -> Self {
        self.params = params;
        self
    }

    /// Returns a copy with a different cycle limit.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }
}

impl Default for TlmConfig {
    fn default() -> Self {
        TlmConfig::ahb_plus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_ahb_plus() {
        let config = TlmConfig::default();
        assert!(config.params.request_pipelining);
        assert!(config.params.has_write_buffer());
        assert!(config.ddr.honour_prepare_hints);
        assert!(config.max_cycles > 0);
    }

    #[test]
    fn plain_ahb_disables_extensions() {
        let config = TlmConfig::plain_ahb();
        assert!(!config.params.request_pipelining);
        assert!(!config.params.has_write_buffer());
        assert!(!config.ddr.honour_prepare_hints);
    }

    #[test]
    fn builders_replace_fields() {
        let config = TlmConfig::default()
            .with_max_cycles(123)
            .with_params(AhbPlusParams::plain_ahb());
        assert_eq!(config.max_cycles, 123);
        assert!(!config.params.request_pipelining);
    }
}
