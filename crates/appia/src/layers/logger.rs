//! A transparent event-counting layer used for diagnostics and tests.

use std::collections::BTreeMap;

use crate::event::{Direction, Event, EventSpec};
use crate::events::ChannelClose;
use crate::kernel::EventContext;
use crate::layer::{Layer, LayerParams};
use crate::platform::DeliveryKind;
use crate::session::Session;

/// Registered name of the logger layer.
pub const LOGGER_LAYER: &str = "logger";

/// Layer that counts every event flowing through it and forwards it
/// unchanged. When the channel closes it reports a summary notification to
/// the application. It reads no parameters.
pub struct LoggerLayer;

impl Layer for LoggerLayer {
    fn name(&self) -> &str {
        LOGGER_LAYER
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::All]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(LoggerSession {
            counts: BTreeMap::new(),
        })
    }
}

/// Session state of the logger layer.
#[derive(Debug)]
pub struct LoggerSession {
    // bound: one counter per (layer, direction) pair -- at most 2 x stack depth entries.
    counts: BTreeMap<(String, &'static str), u64>,
}

impl LoggerSession {
    fn direction_name(direction: Direction) -> &'static str {
        match direction {
            Direction::Up => "up",
            Direction::Down => "down",
        }
    }
}

impl Session for LoggerSession {
    fn layer_name(&self) -> &str {
        LOGGER_LAYER
    }

    fn handle(&mut self, event: Event, ctx: &mut EventContext<'_>) {
        let key = (
            event.type_name().to_string(),
            Self::direction_name(event.direction),
        );
        *self.counts.entry(key).or_insert(0) += 1;

        if event.is::<ChannelClose>() {
            let total: u64 = self.counts.values().sum();
            ctx.deliver(DeliveryKind::Notification(format!(
                "logger: {} events across {} types",
                total,
                self.counts.len()
            )));
        }
        ctx.forward(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelConfig, LayerSpec};
    use crate::event::Dest;
    use crate::events::DataEvent;
    use crate::kernel::Kernel;
    use crate::message::Message;
    use crate::platform::{NodeId, TestPlatform};

    #[test]
    fn logger_reports_a_summary_on_close() {
        let mut kernel = Kernel::new();
        let mut platform = TestPlatform::new(NodeId(1));
        let config = ChannelConfig::new("data")
            .with_layer(LayerSpec::new("network"))
            .with_layer(LayerSpec::new("logger"))
            .with_layer(LayerSpec::new("app"));
        let id = kernel.create_channel(&config, &mut platform).unwrap();

        let event = Event::down(DataEvent::new(
            NodeId(1),
            Dest::Node(NodeId(2)),
            Message::with_payload(&b"x"[..]),
        ));
        kernel.dispatch_and_process(id, event, &mut platform);
        kernel.destroy_channel("data", &mut platform).unwrap();

        let notes: Vec<String> = platform
            .take_deliveries()
            .into_iter()
            .filter_map(|delivery| match delivery.kind {
                DeliveryKind::Notification(text) => Some(text),
                _ => None,
            })
            .collect();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("events across"));
    }
}
