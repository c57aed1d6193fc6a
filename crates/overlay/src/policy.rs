//! Per-room stack selection: the paper's context-driven adaptation applied
//! at room-shard grain.
//!
//! The whole-group planes adapt once for everybody; a room-sharded overlay
//! can do better, because each room has its own size, traffic and member
//! context. The decision logic itself lives with the rest of the control
//! subsystem ([`morpheus_core::RoomRules`]) and evaluates the
//! [`RoomContext`] slice Cocaditem extracts per room; this module renders
//! the chosen [`RoomStackKind`] into the overlay's concrete [`RoomConfig`].

use morpheus_cocaditem::RoomContext;
use morpheus_core::RoomRules;
pub use morpheus_core::RoomStackKind;

use crate::plumtree::RoomConfig;

/// Picks the stack one room shard should run, under the default room rules:
/// small or quiet rooms flood directly, large busy rooms run the spanning
/// tree with a push depth derived from the room size.
pub fn choose_room_stack(context: &RoomContext) -> RoomStackKind {
    RoomRules::default().evaluate(context)
}

/// Renders a room stack kind into the overlay configuration, on top of a
/// base config carrying the group-inherited knobs (repair cadence, log
/// bounds).
pub fn render_room_config(kind: &RoomStackKind, base: RoomConfig) -> RoomConfig {
    match kind {
        RoomStackKind::DirectPush => RoomConfig {
            allow_prune: false,
            ..base
        },
        RoomStackKind::TreePush { push_ttl } => RoomConfig {
            allow_prune: true,
            push_ttl: (*push_ttl).min(u8::MAX as u32) as u8,
            ..base
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rooms_flood_and_large_busy_rooms_run_the_tree() {
        let tiny = choose_room_stack(&RoomContext::synthetic(0, 3, 50.0));
        assert_eq!(tiny, RoomStackKind::DirectPush);
        let quiet = choose_room_stack(&RoomContext::synthetic(1, 100, 0.2));
        assert_eq!(quiet, RoomStackKind::DirectPush);
        let busy = choose_room_stack(&RoomContext::synthetic(2, 100, 60.0));
        assert!(matches!(busy, RoomStackKind::TreePush { .. }));
    }

    #[test]
    fn rendering_preserves_the_group_inherited_knobs() {
        let base = RoomConfig {
            repair_interval_ms: 333,
            repair_log_cap: 77,
            ..RoomConfig::default()
        };
        let direct = render_room_config(&RoomStackKind::DirectPush, base);
        assert!(!direct.allow_prune);
        assert_eq!(direct.repair_interval_ms, 333);
        assert_eq!(direct.repair_log_cap, 77);
        let tree = render_room_config(&RoomStackKind::TreePush { push_ttl: 6 }, base);
        assert!(tree.allow_prune);
        assert_eq!(tree.push_ttl, 6);
        assert_eq!(tree.repair_log_cap, 77);
    }
}
