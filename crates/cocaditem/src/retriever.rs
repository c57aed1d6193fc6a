//! Context retrievers: sampling the locally observable system context.

use morpheus_appia::platform::NodeProfile;

use crate::context::{ContextKey, ContextSnapshot, ContextValue};

/// A source of one or more context attributes.
///
/// Retrievers are intentionally simple: they read from the node profile the
/// platform exposes (which, in the simulated testbed, reflects the simulated
/// battery, link and topology state). A production deployment would implement
/// retrievers over `/sys`, `ioctl`s or OS APIs, as the paper suggests.
pub trait ContextRetriever {
    /// A short name identifying the retriever.
    fn name(&self) -> &'static str;

    /// The keys this retriever produces.
    fn keys(&self) -> &'static [ContextKey];

    /// Samples the attributes from the current node profile into the
    /// sample being taken.
    fn retrieve(&self, profile: &NodeProfile, into: &mut ContextSnapshot);
}

/// Retrieves the device class.
pub struct DeviceRetriever;

impl ContextRetriever for DeviceRetriever {
    fn name(&self) -> &'static str {
        "device"
    }

    fn keys(&self) -> &'static [ContextKey] {
        &[ContextKey::DeviceClass]
    }

    fn retrieve(&self, profile: &NodeProfile, into: &mut ContextSnapshot) {
        into.set(
            ContextKey::DeviceClass,
            ContextValue::Device(profile.device_class),
        );
    }
}

/// Retrieves the battery level.
pub struct BatteryRetriever;

impl ContextRetriever for BatteryRetriever {
    fn name(&self) -> &'static str {
        "battery"
    }

    fn keys(&self) -> &'static [ContextKey] {
        &[ContextKey::BatteryLevel]
    }

    fn retrieve(&self, profile: &NodeProfile, into: &mut ContextSnapshot) {
        into.set(
            ContextKey::BatteryLevel,
            ContextValue::Number(profile.battery_level),
        );
    }
}

/// Retrieves link-related attributes: quality, bandwidth, error rate and
/// native multicast availability.
pub struct LinkRetriever;

impl ContextRetriever for LinkRetriever {
    fn name(&self) -> &'static str {
        "link"
    }

    fn keys(&self) -> &'static [ContextKey] {
        &[
            ContextKey::LinkQuality,
            ContextKey::BandwidthKbps,
            ContextKey::ErrorRate,
            ContextKey::NativeMulticast,
        ]
    }

    fn retrieve(&self, profile: &NodeProfile, into: &mut ContextSnapshot) {
        into.set(
            ContextKey::LinkQuality,
            ContextValue::Number(profile.link_quality),
        );
        into.set(
            ContextKey::BandwidthKbps,
            ContextValue::Number(profile.bandwidth_kbps as f64),
        );
        into.set(
            ContextKey::ErrorRate,
            ContextValue::Number(profile.error_rate),
        );
        into.set(
            ContextKey::NativeMulticast,
            ContextValue::Flag(profile.has_native_multicast),
        );
    }
}

/// The default retriever set, in the order a sample runs them.
pub fn default_retrievers() -> &'static [&'static dyn ContextRetriever] {
    &[&DeviceRetriever, &BatteryRetriever, &LinkRetriever]
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::{DeviceClass, NodeId};

    use super::*;

    #[test]
    fn default_retrievers_cover_every_key() {
        let profile = NodeProfile::mobile_pda(NodeId(2));
        let mut snapshot = ContextSnapshot::new(NodeId(2), 0);
        for retriever in default_retrievers() {
            retriever.retrieve(&profile, &mut snapshot);
        }
        for key in ContextKey::ALL {
            assert!(snapshot.get(key).is_some(), "retrievers missed {key:?}");
        }
    }

    #[test]
    fn retrievers_report_their_keys() {
        assert_eq!(DeviceRetriever.keys(), [ContextKey::DeviceClass]);
        assert_eq!(BatteryRetriever.keys(), [ContextKey::BatteryLevel]);
        assert_eq!(LinkRetriever.keys().len(), 4);
        assert_eq!(DeviceRetriever.name(), "device");
        // Each retriever writes exactly the keys it reports.
        let profile = NodeProfile::mobile_pda(NodeId(2));
        for retriever in default_retrievers() {
            let mut snapshot = ContextSnapshot::new(NodeId(2), 0);
            retriever.retrieve(&profile, &mut snapshot);
            let written: Vec<ContextKey> = snapshot.entries().map(|(key, _)| key).collect();
            assert_eq!(written, retriever.keys(), "{}", retriever.name());
        }
    }

    #[test]
    fn device_retriever_reflects_the_profile() {
        let profile = NodeProfile::fixed_pc(NodeId(1));
        let mut snapshot = ContextSnapshot::new(NodeId(1), 0);
        DeviceRetriever.retrieve(&profile, &mut snapshot);
        assert_eq!(snapshot.entries().count(), 1);
        assert_eq!(snapshot.device_class(), Some(DeviceClass::FixedPc));
    }
}
