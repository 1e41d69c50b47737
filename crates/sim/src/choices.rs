//! Named prefetcher configurations (Table III).

use berti_core::{Berti, BertiConfig, BertiPage};
use berti_mem::{NullPrefetcher, Prefetcher};
use berti_prefetchers::{
    BestOffset, Bingo, IpStride, Ipcp, Misb, Mlop, NextLine, Sms, SppPpf, StreamPrefetcher, Vldp,
};
use berti_types::FillLevel;

/// L1D prefetcher selection.
#[derive(Clone, Debug, PartialEq)]
pub enum PrefetcherChoice {
    /// No prefetching at all.
    None,
    /// The baseline 24-entry IP-stride prefetcher (Table II).
    IpStride,
    /// Next-line.
    NextLine,
    /// Classic stream prefetcher.
    Stream,
    /// Best-offset prefetching (DPC-2 winner).
    Bop,
    /// Multi-lookahead offset prefetching (Table III).
    Mlop,
    /// Instruction-pointer classifier prefetching (DPC-3 winner).
    Ipcp,
    /// Variable-length delta prefetching.
    Vldp,
    /// Berti with the paper's configuration.
    Berti,
    /// Berti with a custom configuration (sensitivity studies).
    BertiWith(BertiConfig),
    /// The DPC-3 per-page predecessor of Berti (local-context
    /// ablation).
    BertiPage,
}

impl PrefetcherChoice {
    /// Instantiates the prefetcher.
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherChoice::None => Box::new(NullPrefetcher),
            PrefetcherChoice::IpStride => Box::new(IpStride::default()),
            PrefetcherChoice::NextLine => Box::new(NextLine::default()),
            PrefetcherChoice::Stream => Box::new(StreamPrefetcher::default()),
            PrefetcherChoice::Bop => Box::new(BestOffset::new(FillLevel::L1)),
            PrefetcherChoice::Mlop => Box::new(Mlop::new(FillLevel::L1)),
            PrefetcherChoice::Ipcp => Box::new(Ipcp::new(FillLevel::L1)),
            PrefetcherChoice::Vldp => Box::new(Vldp::new(FillLevel::L1)),
            PrefetcherChoice::Berti => Box::new(Berti::new(BertiConfig::default())),
            PrefetcherChoice::BertiWith(cfg) => Box::new(Berti::new(*cfg)),
            PrefetcherChoice::BertiPage => {
                Box::new(BertiPage::with_context(BertiConfig::default()))
            }
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PrefetcherChoice::None => "none",
            PrefetcherChoice::IpStride => "ip-stride",
            PrefetcherChoice::NextLine => "next-line",
            PrefetcherChoice::Stream => "stream",
            PrefetcherChoice::Bop => "bop",
            PrefetcherChoice::Mlop => "mlop",
            PrefetcherChoice::Ipcp => "ipcp",
            PrefetcherChoice::Vldp => "vldp",
            PrefetcherChoice::Berti | PrefetcherChoice::BertiWith(_) => "berti",
            PrefetcherChoice::BertiPage => "berti-page",
        }
    }
}

/// L2 prefetcher selection (multi-level prefetching, Sec. IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2PrefetcherChoice {
    /// SPP with the perceptron prefetch filter.
    SppPpf,
    /// Bingo spatial footprints.
    Bingo,
    /// IPCP hosted at the L2 (the paper's IPCP+IPCP configuration).
    Ipcp,
    /// MISB temporal prefetcher (Sec. IV-H).
    Misb,
    /// VLDP at the L2.
    Vldp,
    /// Spatial memory streaming at the L2.
    Sms,
}

impl L2PrefetcherChoice {
    /// Instantiates the prefetcher (L2-hosted: trains on physical
    /// lines, fills L2/LLC).
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            L2PrefetcherChoice::SppPpf => Box::new(SppPpf::build()),
            L2PrefetcherChoice::Bingo => Box::new(Bingo::new(FillLevel::L2)),
            L2PrefetcherChoice::Ipcp => Box::new(Ipcp::new(FillLevel::L2)),
            L2PrefetcherChoice::Misb => Box::new(Misb::new(FillLevel::L2)),
            L2PrefetcherChoice::Vldp => Box::new(Vldp::new(FillLevel::L2)),
            L2PrefetcherChoice::Sms => Box::new(Sms::new(FillLevel::L2)),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            L2PrefetcherChoice::SppPpf => "spp-ppf",
            L2PrefetcherChoice::Bingo => "bingo",
            L2PrefetcherChoice::Ipcp => "ipcp",
            L2PrefetcherChoice::Misb => "misb",
            L2PrefetcherChoice::Vldp => "vldp",
            L2PrefetcherChoice::Sms => "sms",
        }
    }
}

impl serde::Serialize for PrefetcherChoice {
    fn to_value(&self) -> serde::Value {
        match self {
            // Custom-configured Berti carries its config so a cached
            // result can never alias a differently-tuned run.
            PrefetcherChoice::BertiWith(cfg) => serde::Value::Object(vec![(
                "berti-with".to_string(),
                serde::Serialize::to_value(cfg),
            )]),
            other => serde::Value::Str(other.name().to_string()),
        }
    }
}

impl serde::Deserialize for PrefetcherChoice {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(cfg) = v.get("berti-with") {
            return Ok(PrefetcherChoice::BertiWith(serde::Deserialize::from_value(
                cfg,
            )?));
        }
        let name = v
            .as_str()
            .ok_or_else(|| serde::Error::invalid_type("prefetcher name", v))?;
        PrefetcherChoice::parse(name)
            .ok_or_else(|| serde::Error::custom(format!("unknown L1 prefetcher `{name}`")))
    }
}

impl PrefetcherChoice {
    /// Parses a plain (non-custom-config) choice from its display name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "none" => PrefetcherChoice::None,
            "ip-stride" => PrefetcherChoice::IpStride,
            "next-line" => PrefetcherChoice::NextLine,
            "stream" => PrefetcherChoice::Stream,
            "bop" => PrefetcherChoice::Bop,
            "mlop" => PrefetcherChoice::Mlop,
            "ipcp" => PrefetcherChoice::Ipcp,
            "vldp" => PrefetcherChoice::Vldp,
            "berti" => PrefetcherChoice::Berti,
            "berti-page" => PrefetcherChoice::BertiPage,
            _ => return None,
        })
    }
}

impl serde::Serialize for L2PrefetcherChoice {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl serde::Deserialize for L2PrefetcherChoice {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let name = v
            .as_str()
            .ok_or_else(|| serde::Error::invalid_type("prefetcher name", v))?;
        L2PrefetcherChoice::parse(name)
            .ok_or_else(|| serde::Error::custom(format!("unknown L2 prefetcher `{name}`")))
    }
}

impl L2PrefetcherChoice {
    /// Parses a choice from its display name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "spp-ppf" => L2PrefetcherChoice::SppPpf,
            "bingo" => L2PrefetcherChoice::Bingo,
            "ipcp" => L2PrefetcherChoice::Ipcp,
            "misb" => L2PrefetcherChoice::Misb,
            "vldp" => L2PrefetcherChoice::Vldp,
            "sms" => L2PrefetcherChoice::Sms,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_serde_roundtrips() {
        let cfg = berti_core::BertiConfig {
            history_sets: 32,
            ..berti_core::BertiConfig::default()
        };
        for c in [
            PrefetcherChoice::None,
            PrefetcherChoice::IpStride,
            PrefetcherChoice::Berti,
            PrefetcherChoice::BertiWith(cfg),
            PrefetcherChoice::BertiPage,
        ] {
            let json = serde::json::to_string(&c);
            let back: PrefetcherChoice = serde::json::from_str(&json).expect("parses");
            assert_eq!(back, c, "{json}");
        }
        for c in [L2PrefetcherChoice::SppPpf, L2PrefetcherChoice::Sms] {
            let json = serde::json::to_string(&c);
            let back: L2PrefetcherChoice = serde::json::from_str(&json).expect("parses");
            assert_eq!(back, c, "{json}");
        }
    }

    #[test]
    fn every_choice_builds() {
        for c in [
            PrefetcherChoice::None,
            PrefetcherChoice::IpStride,
            PrefetcherChoice::NextLine,
            PrefetcherChoice::Stream,
            PrefetcherChoice::Bop,
            PrefetcherChoice::Mlop,
            PrefetcherChoice::Ipcp,
            PrefetcherChoice::Vldp,
            PrefetcherChoice::Berti,
            PrefetcherChoice::BertiPage,
        ] {
            let p = c.build();
            assert_eq!(p.name(), c.name());
        }
        for c in [
            L2PrefetcherChoice::SppPpf,
            L2PrefetcherChoice::Bingo,
            L2PrefetcherChoice::Ipcp,
            L2PrefetcherChoice::Misb,
            L2PrefetcherChoice::Vldp,
            L2PrefetcherChoice::Sms,
        ] {
            let p = c.build();
            assert_eq!(p.name(), c.name());
        }
    }

    #[test]
    fn berti_custom_config_propagates() {
        let cfg = berti_core::BertiConfig {
            history_sets: 16,
            ..berti_core::BertiConfig::default()
        };
        let p = PrefetcherChoice::BertiWith(cfg).build();
        assert!(p.storage_bits() > PrefetcherChoice::Berti.build().storage_bits());
    }
}
