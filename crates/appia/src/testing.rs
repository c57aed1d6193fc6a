//! Test utilities for exercising a single layer in isolation.
//!
//! [`Harness`] builds a three-slot channel — a capturing layer at the bottom,
//! the layer under test in the middle and a capturing layer at the top — so a
//! test can inject events from either end and observe exactly what the layer
//! forwards in each direction, without standing up a full protocol stack.

use std::cell::RefCell;
use std::rc::Rc;

use crate::channel::ChannelId;
use crate::config::{ChannelConfig, LayerSpec};
use crate::event::{Direction, Event, EventSpec};
use crate::kernel::{EventContext, Kernel};
use crate::layer::{Layer, LayerParams};
use crate::platform::Platform;
use crate::session::Session;
use crate::timer::TimerKey;

/// Which end of the stack a capture layer sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Top,
    Bottom,
}

struct CaptureLayer {
    end: End,
    sink: Rc<RefCell<Vec<Event>>>,
}

struct CaptureSession {
    end: End,
    // bound: test-harness capture; the driving test empties it via drain_up/drain_down.
    sink: Rc<RefCell<Vec<Event>>>,
}

impl Layer for CaptureLayer {
    fn name(&self) -> &str {
        match self.end {
            End::Top => "capture-top",
            End::Bottom => "capture-bottom",
        }
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::All]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(CaptureSession {
            end: self.end,
            sink: self.sink.clone(),
        })
    }
}

impl Session for CaptureSession {
    fn layer_name(&self) -> &str {
        match self.end {
            End::Top => "capture-top",
            End::Bottom => "capture-bottom",
        }
    }

    fn handle(&mut self, event: Event, ctx: &mut EventContext<'_>) {
        let arriving = matches!(
            (self.end, event.direction),
            (End::Top, Direction::Up) | (End::Bottom, Direction::Down)
        );
        if arriving {
            self.sink.borrow_mut().push(event);
        } else {
            ctx.forward(event);
        }
    }
}

/// A single-layer test harness.
pub struct Harness {
    kernel: Kernel,
    channel: ChannelId,
    top: Rc<RefCell<Vec<Event>>>,
    bottom: Rc<RefCell<Vec<Event>>>,
}

impl Harness {
    /// Builds a harness around one layer instance configured with `params`.
    pub fn new(
        layer: impl Layer + 'static,
        params: &LayerParams,
        platform: &mut dyn Platform,
    ) -> Self {
        let top = Rc::new(RefCell::new(Vec::new()));
        let bottom = Rc::new(RefCell::new(Vec::new()));
        let mut kernel = Kernel::new();
        let layer_name = layer.name().to_string();
        kernel.layers_mut().register(layer);
        kernel.layers_mut().register(CaptureLayer {
            end: End::Top,
            sink: top.clone(),
        });
        kernel.layers_mut().register(CaptureLayer {
            end: End::Bottom,
            sink: bottom.clone(),
        });

        let mut spec = LayerSpec::new(layer_name);
        spec.params = params.clone();
        let config = ChannelConfig::new("harness")
            .with_layer(LayerSpec::new("capture-bottom"))
            .with_layer(spec)
            .with_layer(LayerSpec::new("capture-top"));
        let channel = kernel
            .create_channel(&config, platform)
            .expect("harness channel creation cannot fail");
        // Discard anything produced during ChannelInit so tests start clean.
        top.borrow_mut().clear();
        bottom.borrow_mut().clear();
        Self {
            kernel,
            channel,
            top,
            bottom,
        }
    }

    /// The kernel backing the harness (e.g. to fire timers).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The harness channel id.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Injects an event at the bottom/top edge (according to its direction),
    /// processes to completion and returns everything that reached the *top*.
    pub fn run_up(&mut self, event: Event, platform: &mut dyn Platform) -> Vec<Event> {
        self.kernel
            .dispatch_and_process(self.channel, event, platform);
        self.drain_up()
    }

    /// Injects an event, processes to completion and returns everything that
    /// reached the *bottom*.
    pub fn run_down(&mut self, event: Event, platform: &mut dyn Platform) -> Vec<Event> {
        self.kernel
            .dispatch_and_process(self.channel, event, platform);
        self.drain_down()
    }

    /// Events captured at the top since the last drain. The capture buffer
    /// keeps its memory, so a warmed harness captures without allocating and
    /// a test can count what the layer under test allocates.
    pub fn drain_up(&mut self) -> Vec<Event> {
        self.top.borrow_mut().drain(..).collect()
    }

    /// Events captured at the bottom since the last drain (the capture
    /// buffer keeps its memory, as in [`Harness::drain_up`]).
    pub fn drain_down(&mut self) -> Vec<Event> {
        self.bottom.borrow_mut().drain(..).collect()
    }

    /// Reports a fired timer to the kernel and returns what reached the top.
    pub fn fire_timer(&mut self, key: TimerKey, platform: &mut dyn Platform) {
        self.kernel.timer_expired(key, platform);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::DataEvent;
    use crate::layers::LoggerLayer;
    use crate::message::Message;
    use crate::platform::{NodeId, TestPlatform};

    #[test]
    fn harness_routes_events_through_the_layer_under_test() {
        let mut platform = TestPlatform::new(NodeId(1));
        let mut harness = Harness::new(LoggerLayer, &LayerParams::new(), &mut platform);

        let up = harness.run_up(
            Event::up(DataEvent::to_group(
                NodeId(2),
                Message::with_payload(&b"u"[..]),
            )),
            &mut platform,
        );
        assert_eq!(up.len(), 1);
        assert!(harness.drain_down().is_empty());

        let down = harness.run_down(
            Event::down(DataEvent::to_group(
                NodeId(1),
                Message::with_payload(&b"d"[..]),
            )),
            &mut platform,
        );
        assert_eq!(down.len(), 1);
        assert!(harness.drain_up().is_empty());
    }
}
