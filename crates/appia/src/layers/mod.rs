//! Built-in layers shipped with the kernel.
//!
//! * [`network_driver::NetworkDriverLayer`] (`"network"`) — the bottom of
//!   every stack: serialises sendable events into packets.
//! * [`app_interface::AppInterfaceLayer`] (`"app"`) — the top of every stack:
//!   delivers application data to the local application.
//! * [`logger::LoggerLayer`] (`"logger"`) — a transparent event counter used
//!   for diagnostics and tests.

pub mod app_interface;
pub mod logger;
pub mod network_driver;

pub use app_interface::AppInterfaceLayer;
pub use logger::LoggerLayer;
pub use network_driver::NetworkDriverLayer;

use crate::registry::LayerRegistry;

/// Registers every built-in layer into the given registry.
pub fn register_builtin(registry: &mut LayerRegistry) {
    registry.register(NetworkDriverLayer);
    registry.register(AppInterfaceLayer);
    registry.register(LoggerLayer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_layers_are_registered() {
        let mut registry = LayerRegistry::new();
        register_builtin(&mut registry);
        for name in ["network", "app", "logger"] {
            assert!(registry.contains(name), "missing builtin layer `{name}`");
        }
    }
}
