//! Channels: instantiated protocol stacks.
//!
//! A channel binds a QoS (an ordered list of layers) to a concrete stack of
//! sessions. The channel is also responsible for *event routing*: at build
//! time it folds every slot's accept specification into dense per-category
//! and per-type bitmasks (one bit per stack position), so finding the next
//! interested session is a shift-and-scan over a `u64` — no hashing and no
//! allocation on the hot path. This realises the "automatic optimisation of
//! the flow of events" described in the paper.

use std::any::TypeId;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::event::{Category, Direction, EventPayload, EventSpec};
use crate::intern::Name;
use crate::session::SessionRef;
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// Identifier of a channel inside one kernel instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ChannelId(pub u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl Wire for ChannelId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ChannelId(r.get_u32()?))
    }
}

/// Maximum number of sessions in one stack. Routes are stored as one bit per
/// stack position in a `u64`; the composition validator rejects deeper
/// stacks (the paper's stacks use 4–7 layers).
pub const MAX_STACK_DEPTH: usize = 64;

/// One slot of a channel stack: the layer name, its accept specification and
/// the session instance.
pub(crate) struct StackSlot {
    pub(crate) layer_name: Name,
    pub(crate) accepts: Vec<EventSpec>,
    pub(crate) session: SessionRef,
}

const CATEGORY_COUNT: usize = 4;

fn category_index(category: Category) -> usize {
    match category {
        Category::Sendable => 0,
        Category::ChannelLifecycle => 1,
        Category::Timer => 2,
        Category::Internal => 3,
    }
}

/// Dense routing masks, one bit per stack position (bit 0 = bottom).
///
/// The static masks are folded once from the slots' accept specifications
/// when the channel is built; the per-payload-type result is memoised in a
/// small linear-probed vector (protocol stacks see a handful of distinct
/// payload types, so a scan beats hashing).
#[derive(Debug, Default)]
struct RouteTable {
    /// Slots accepting every event ([`EventSpec::All`]).
    all_mask: u64,
    /// Slots accepting each [`Category`].
    category_masks: [u64; CATEGORY_COUNT],
    /// Slots accepting a specific payload type, sorted by `TypeId`.
    type_masks: Vec<(TypeId, u64)>,
    /// Memoised final mask per payload type observed on this channel.
    cache: Vec<(TypeId, u64)>,
}

impl RouteTable {
    fn build(slots: &[StackSlot]) -> Self {
        debug_assert!(slots.len() <= MAX_STACK_DEPTH, "validated at channel build");
        let mut table = RouteTable::default();
        for (index, slot) in slots.iter().enumerate() {
            let bit = 1u64 << index;
            for spec in &slot.accepts {
                match spec {
                    EventSpec::All => table.all_mask |= bit,
                    EventSpec::Category(category) => {
                        table.category_masks[category_index(*category)] |= bit;
                    }
                    EventSpec::Type(type_id) => {
                        match table
                            .type_masks
                            .binary_search_by_key(type_id, |(id, _)| *id)
                        {
                            Ok(found) => table.type_masks[found].1 |= bit,
                            Err(insert_at) => table.type_masks.insert(insert_at, (*type_id, bit)),
                        }
                    }
                }
            }
        }
        table
    }

    /// The mask of stack positions interested in the given payload.
    fn mask_for(&mut self, payload: &dyn EventPayload) -> u64 {
        let type_id = payload.as_any().type_id();
        if let Some(&(_, mask)) = self.cache.iter().find(|(cached, _)| *cached == type_id) {
            return mask;
        }
        let mut mask = self.all_mask;
        for category in payload.categories() {
            mask |= self.category_masks[category_index(*category)];
        }
        if let Ok(found) = self
            .type_masks
            .binary_search_by_key(&type_id, |(id, _)| *id)
        {
            mask |= self.type_masks[found].1;
        }
        self.cache.push((type_id, mask));
        mask
    }
}

/// A protocol stack instance.
pub struct Channel {
    id: ChannelId,
    name: Name,
    slots: Vec<StackSlot>,
    routes: RouteTable,
}

impl Channel {
    /// Creates a channel from an ordered (bottom-up) stack of slots.
    ///
    /// # Panics
    /// Panics when the stack is deeper than [`MAX_STACK_DEPTH`]; the kernel
    /// validates depth before constructing channels.
    pub(crate) fn new(id: ChannelId, name: impl Into<Name>, slots: Vec<StackSlot>) -> Self {
        assert!(
            slots.len() <= MAX_STACK_DEPTH,
            "stack depth {} exceeds MAX_STACK_DEPTH ({MAX_STACK_DEPTH})",
            slots.len()
        );
        let routes = RouteTable::build(&slots);
        Self {
            id,
            name: name.into(),
            slots,
            routes,
        }
    }

    /// The channel identifier.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// The channel name (unique inside a kernel).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned channel name (cloning is a refcount bump).
    pub fn interned_name(&self) -> &Name {
        &self.name
    }

    /// Number of sessions in the stack.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Names of the layers in the stack, bottom-up.
    ///
    /// Cold accessor for diagnostics and tests; the dispatch loop borrows
    /// one slot's name instead, which does not allocate.
    pub fn layer_names(&self) -> Vec<Name> {
        self.slots
            .iter()
            .map(|slot| slot.layer_name.clone())
            .collect()
    }

    /// The interned name of the layer at the given stack position.
    pub fn layer_name_at(&self, index: usize) -> Option<&Name> {
        self.slots.get(index).map(|slot| &slot.layer_name)
    }

    /// Whether the stack contains a layer with the given name.
    pub fn has_layer(&self, layer_name: &str) -> bool {
        self.slots
            .iter()
            .any(|slot| slot.layer_name.as_str() == layer_name)
    }

    /// The slot at a stack position [`Channel::next_hop`] returned.
    pub(crate) fn slot(&self, index: usize) -> &StackSlot {
        &self.slots[index]
    }

    /// The session at the given stack position (0 = bottom).
    pub fn session_at(&self, index: usize) -> Option<SessionRef> {
        self.slots.get(index).map(|slot| slot.session.clone())
    }

    /// The session of the layer with the given name, if present.
    pub fn session_of(&self, layer_name: &str) -> Option<SessionRef> {
        self.slots
            .iter()
            .find(|slot| slot.layer_name.as_str() == layer_name)
            .map(|slot| slot.session.clone())
    }

    /// The stack position holding this very session instance, if any.
    pub(crate) fn slot_of(&self, session: &SessionRef) -> Option<usize> {
        self.slots
            .iter()
            .position(|slot| std::rc::Rc::ptr_eq(&slot.session, session))
    }

    /// The accept mask for the given payload (bit `i` = slot `i` accepts it).
    /// Exposed for tests asserting routing invariants.
    pub fn route_mask(&mut self, payload: &dyn EventPayload) -> u64 {
        self.routes.mask_for(payload)
    }

    /// Number of distinct payload types routed so far (memo size).
    pub fn cached_route_count(&self) -> usize {
        self.routes.cache.len()
    }

    /// Computes the next stack position that should handle the event.
    ///
    /// `from` is the position of the session that just handled it (`None`
    /// when the event is entering the channel from one of its ends).
    pub(crate) fn next_hop(
        &mut self,
        payload: &dyn EventPayload,
        direction: Direction,
        from: Option<usize>,
    ) -> Option<usize> {
        let len = self.slots.len();
        if len == 0 {
            return None;
        }
        let mask = self.routes.mask_for(payload);
        match direction {
            Direction::Up => {
                let start = match from {
                    Some(index) => index + 1,
                    None => 0,
                };
                if start >= len {
                    return None;
                }
                // Clear bits below `start`, then take the lowest set bit.
                let candidates = mask & (u64::MAX << start);
                if candidates == 0 {
                    None
                } else {
                    Some(candidates.trailing_zeros() as usize)
                }
            }
            Direction::Down => {
                let start = match from {
                    Some(0) => return None,
                    Some(index) => index - 1,
                    None => len - 1,
                };
                // Keep bits at or below `start`, then take the highest.
                let keep = if start >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (start + 1)) - 1
                };
                let candidates = mask & keep;
                if candidates == 0 {
                    None
                } else {
                    Some(63 - candidates.leading_zeros() as usize)
                }
            }
        }
    }
}

impl fmt::Debug for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("layers", &self.layer_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::event::{Category, Event};
    use crate::events::{ChannelInit, DataEvent, TimerExpired};
    use crate::kernel::EventContext;
    use crate::message::Message;
    use crate::platform::NodeId;
    use crate::session::Session;

    struct NullSession(&'static str);

    impl Session for NullSession {
        fn layer_name(&self) -> &str {
            self.0
        }

        fn handle(&mut self, _event: Event, _ctx: &mut EventContext<'_>) {}
    }

    fn slot(name: &'static str, accepts: Vec<EventSpec>) -> StackSlot {
        StackSlot {
            layer_name: Name::new(name),
            accepts,
            session: Rc::new(RefCell::new(Box::new(NullSession(name)) as Box<dyn Session>)),
        }
    }

    fn sample_channel() -> Channel {
        // bottom: net (all sendable), middle: fifo (DataEvent), top: app (DataEvent + init)
        Channel::new(
            ChannelId(1),
            "data",
            vec![
                slot("net", vec![EventSpec::Category(Category::Sendable)]),
                slot("fifo", vec![EventSpec::of::<DataEvent>()]),
                slot(
                    "app",
                    vec![EventSpec::of::<DataEvent>(), EventSpec::of::<ChannelInit>()],
                ),
            ],
        )
    }

    #[test]
    fn metadata_accessors() {
        let channel = sample_channel();
        assert_eq!(channel.id(), ChannelId(1));
        assert_eq!(channel.name(), "data");
        assert_eq!(channel.len(), 3);
        assert!(channel.has_layer("fifo"));
        assert!(!channel.has_layer("total"));
        assert!(channel.session_of("app").is_some());
        assert!(channel.session_at(9).is_none());
        assert_eq!(channel.layer_name_at(1).unwrap(), "fifo");
        assert!(channel.layer_name_at(9).is_none());
    }

    #[test]
    fn up_route_visits_accepting_sessions_in_order() {
        let mut channel = sample_channel();
        let data = DataEvent::to_group(NodeId(1), Message::new());

        let first = channel.next_hop(&data, Direction::Up, None).unwrap();
        assert_eq!(first, 0);
        let second = channel.next_hop(&data, Direction::Up, Some(first)).unwrap();
        assert_eq!(second, 1);
        let third = channel
            .next_hop(&data, Direction::Up, Some(second))
            .unwrap();
        assert_eq!(third, 2);
        assert_eq!(channel.next_hop(&data, Direction::Up, Some(third)), None);
    }

    #[test]
    fn down_route_skips_uninterested_sessions() {
        let mut channel = sample_channel();
        let init = ChannelInit {};

        // Only the app layer accepts ChannelInit, so going down from the top
        // it is the first and last stop.
        let first = channel.next_hop(&init, Direction::Down, None).unwrap();
        assert_eq!(first, 2);
        assert_eq!(channel.next_hop(&init, Direction::Down, Some(first)), None);
    }

    #[test]
    fn down_route_from_bottom_terminates() {
        let mut channel = sample_channel();
        let data = DataEvent::to_group(NodeId(1), Message::new());
        assert_eq!(channel.next_hop(&data, Direction::Down, Some(0)), None);
    }

    #[test]
    fn routes_are_cached_per_payload_type() {
        let mut channel = sample_channel();
        let data = DataEvent::to_group(NodeId(1), Message::new());
        let init = ChannelInit {};
        assert_eq!(channel.cached_route_count(), 0);
        channel.next_hop(&data, Direction::Up, None);
        channel.next_hop(&data, Direction::Down, None);
        assert_eq!(channel.cached_route_count(), 1);
        channel.next_hop(&init, Direction::Up, None);
        assert_eq!(channel.cached_route_count(), 2);
    }

    #[test]
    fn route_masks_combine_type_category_and_all_specs() {
        let mut channel = Channel::new(
            ChannelId(3),
            "mask",
            vec![
                slot("net", vec![EventSpec::Category(Category::Sendable)]),
                slot("log", vec![EventSpec::All]),
                slot("fifo", vec![EventSpec::of::<DataEvent>()]),
                slot("timer", vec![EventSpec::Category(Category::Timer)]),
            ],
        );
        let data = DataEvent::to_group(NodeId(1), Message::new());
        // Sendable category (net) + All (log) + concrete type (fifo).
        assert_eq!(channel.route_mask(&data), 0b0111);
        let timer = TimerExpired {
            owner: "fifo".into(),
            tag: 0,
            timer_id: 1,
        };
        // All (log) + Timer category (timer).
        assert_eq!(channel.route_mask(&timer), 0b1010);
        let init = ChannelInit {};
        // Only the All slot.
        assert_eq!(channel.route_mask(&init), 0b0010);
    }

    #[test]
    fn empty_channel_has_no_hops() {
        let mut channel = Channel::new(ChannelId(9), "empty", vec![]);
        let data = DataEvent::to_group(NodeId(1), Message::new());
        assert_eq!(channel.next_hop(&data, Direction::Up, None), None);
        assert!(channel.is_empty());
    }

    #[test]
    fn deepest_supported_stack_routes_to_both_ends() {
        let slots: Vec<StackSlot> = (0..MAX_STACK_DEPTH)
            .map(|_| slot("relay", vec![EventSpec::All]))
            .collect();
        let mut channel = Channel::new(ChannelId(7), "deep", slots);
        let data = DataEvent::to_group(NodeId(1), Message::new());
        assert_eq!(channel.next_hop(&data, Direction::Up, None), Some(0));
        assert_eq!(channel.next_hop(&data, Direction::Up, Some(62)), Some(63));
        assert_eq!(channel.next_hop(&data, Direction::Up, Some(63)), None);
        assert_eq!(channel.next_hop(&data, Direction::Down, None), Some(63));
        assert_eq!(channel.next_hop(&data, Direction::Down, Some(1)), Some(0));
    }
}
