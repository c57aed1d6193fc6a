//! The default rule-based adaptation policy.

use morpheus_cocaditem::RoomContext;
use morpheus_groupcomm::gossip::derived_gossip_ttl;

use crate::policy::{AdaptationPolicy, GlobalContext, RoomStackKind, StackKind};

/// The rule-based per-room adaptation: maps one room's context slice to the
/// dissemination stack that shard should run.
///
/// Small rooms flood: below `direct_max_size` members, a spanning tree
/// saves at most a handful of duplicate payloads while adding prune/graft
/// control traffic and a failure mode (a broken tree edge) — direct push is
/// both cheaper and sturdier there. Quiet rooms flood too: pruning is only
/// amortised when messages keep flowing along the tree, so below
/// `busy_publish_rate` the duplicates are too rare to matter. Everything
/// else runs the tree, with a push TTL derived from the room size exactly
/// like the whole-group gossip TTL ([`derived_gossip_ttl`]).
#[derive(Debug, Clone)]
pub struct RoomRules {
    /// Largest room that floods unconditionally.
    pub direct_max_size: usize,
    /// Publish rate (messages/minute) below which a room floods even when
    /// large.
    pub busy_publish_rate: f64,
    /// Fan-out assumed when deriving the tree's push TTL.
    pub tree_fanout: usize,
}

impl Default for RoomRules {
    fn default() -> Self {
        Self {
            direct_max_size: 8,
            busy_publish_rate: 2.0,
            tree_fanout: 3,
        }
    }
}

impl RoomRules {
    /// Picks the stack for one room shard.
    pub fn evaluate(&self, context: &RoomContext) -> RoomStackKind {
        if context.size <= self.direct_max_size
            || context.publish_rate_per_min < self.busy_publish_rate
        {
            return RoomStackKind::DirectPush;
        }
        RoomStackKind::TreePush {
            push_ttl: derived_gossip_ttl(context.size, self.tree_fanout),
        }
    }
}

/// The rule-based policy used by the prototype, encoding the trade-offs the
/// paper motivates, evaluated in priority order:
///
/// 1. **Hybrid group** (some participants fixed, some mobile) → the Mecho
///    stack, with the best-resourced fixed node as relay.
/// 2. **Large group** (at or above `large_group_threshold`) → epidemic
///    multicast at `gossip_fanout`. The choice is the same at any size past
///    the threshold: each gossip session derives its push TTL from its own
///    view ([`derived_gossip_ttl`]).
/// 3. **High error rate** (at or above `fec_error_threshold`) → forward error
///    correction ("mask the errors").
/// 4. **Moderate error rate** (at or above `retransmit_error_threshold`) →
///    NACK-based retransmission ("detect and recover").
/// 5. Otherwise → plain best-effort multicast.
#[derive(Debug, Clone)]
pub struct DefaultPolicy {
    /// Group size at which gossip becomes preferable.
    pub large_group_threshold: usize,
    /// Error rate at which FEC becomes preferable.
    pub fec_error_threshold: f64,
    /// Error rate at which retransmission becomes preferable.
    pub retransmit_error_threshold: f64,
    /// FEC block size used when FEC is selected.
    pub fec_k: usize,
    /// Gossip fan-out used when gossip is selected.
    pub gossip_fanout: usize,
}

impl Default for DefaultPolicy {
    fn default() -> Self {
        Self {
            large_group_threshold: 16,
            fec_error_threshold: 0.05,
            retransmit_error_threshold: 0.005,
            fec_k: 4,
            gossip_fanout: 3,
        }
    }
}

impl AdaptationPolicy for DefaultPolicy {
    fn name(&self) -> &'static str {
        "default-rules"
    }

    fn evaluate(&self, context: &GlobalContext<'_>) -> Option<StackKind> {
        if !context.is_complete() {
            return None;
        }

        if context.is_hybrid() {
            let relay = context.best_relay()?;
            return Some(StackKind::HybridMecho { relay });
        }
        if context.group_size() >= self.large_group_threshold {
            return Some(StackKind::Gossip {
                fanout: self.gossip_fanout,
            });
        }
        let error_rate = context.max_error_rate();
        if error_rate >= self.fec_error_threshold {
            return Some(StackKind::ErrorMasking { k: self.fec_k });
        }
        if error_rate >= self.retransmit_error_threshold {
            return Some(StackKind::Reliable);
        }
        Some(StackKind::BestEffort)
    }
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::{NodeId, NodeProfile};
    use morpheus_cocaditem::{ContextKey, ContextSnapshot, ContextStore, ContextValue};

    use super::*;

    /// A group whose members are exactly the given snapshots' nodes, all in
    /// the store (node 0 evaluates, with its stored snapshot as its sample).
    struct Group {
        members: Vec<NodeId>,
        store: ContextStore,
    }

    impl Group {
        fn decide(&self, policy: &DefaultPolicy) -> Option<StackKind> {
            policy.evaluate(&GlobalContext {
                local: NodeId(0),
                local_sample: self.store.get(NodeId(0)),
                members: &self.members,
                store: &self.store,
            })
        }
    }

    fn context_with(snapshots: Vec<ContextSnapshot>) -> Group {
        let members = snapshots.iter().map(|snapshot| snapshot.node).collect();
        let mut store = ContextStore::new();
        for snapshot in snapshots {
            store.update(snapshot);
        }
        Group { members, store }
    }

    fn fixed(node: u32) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(node)), 1)
    }

    fn mobile(node: u32) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(node)), 1)
    }

    fn with_error(mut snapshot: ContextSnapshot, rate: f64) -> ContextSnapshot {
        snapshot.set(ContextKey::ErrorRate, ContextValue::Number(rate));
        snapshot
    }

    #[test]
    fn room_rules_split_direct_and_tree() {
        let rules = RoomRules::default();
        // Small rooms flood regardless of traffic.
        let small = RoomContext::synthetic(0, 4, 100.0);
        assert_eq!(rules.evaluate(&small), RoomStackKind::DirectPush);
        // Large but quiet rooms flood too.
        let quiet = RoomContext::synthetic(1, 80, 0.5);
        assert_eq!(rules.evaluate(&quiet), RoomStackKind::DirectPush);
        // Large busy rooms run the tree, TTL derived from the room size.
        let busy = RoomContext::synthetic(2, 80, 30.0);
        let RoomStackKind::TreePush { push_ttl } = rules.evaluate(&busy) else {
            panic!("large busy room must run the tree");
        };
        assert_eq!(push_ttl, derived_gossip_ttl(80, 3));
        // A bigger room derives a deeper push.
        let huge = RoomContext::synthetic(3, 2000, 30.0);
        let RoomStackKind::TreePush { push_ttl: deeper } = rules.evaluate(&huge) else {
            panic!("huge busy room must run the tree");
        };
        assert!(deeper > push_ttl);
    }

    #[test]
    fn incomplete_context_yields_no_decision() {
        let mut context = context_with(vec![fixed(0)]);
        context.members.push(NodeId(9));
        assert_eq!(context.decide(&DefaultPolicy::default()), None);
    }

    #[test]
    fn hybrid_groups_select_mecho_with_a_fixed_relay() {
        let context = context_with(vec![fixed(0), mobile(1), mobile(2)]);
        let decision = context.decide(&DefaultPolicy::default());
        assert_eq!(decision, Some(StackKind::HybridMecho { relay: NodeId(0) }));
    }

    #[test]
    fn homogeneous_small_clean_groups_stay_best_effort() {
        let context = context_with(vec![fixed(0), fixed(1), fixed(2)]);
        assert_eq!(
            context.decide(&DefaultPolicy::default()),
            Some(StackKind::BestEffort)
        );
    }

    #[test]
    fn large_groups_select_gossip() {
        let snapshots: Vec<ContextSnapshot> = (0..20).map(fixed).collect();
        let context = context_with(snapshots);
        let decision = context.decide(&DefaultPolicy::default()).unwrap();
        assert!(matches!(decision, StackKind::Gossip { .. }));
    }

    #[test]
    fn gossip_ttl_derives_from_the_live_group_size() {
        // fanout 3: 3^3 = 27 covers 20 → 3 rounds + 1 slack, floored at 4.
        assert_eq!(derived_gossip_ttl(20, 3), 4);
        // 3^4 = 81 covers 50 → 5; 3^5 = 243 covers 100 → 6; 250 needs 6 → 7.
        assert_eq!(derived_gossip_ttl(50, 3), 5);
        assert_eq!(derived_gossip_ttl(100, 3), 6);
        assert_eq!(derived_gossip_ttl(250, 3), 7);
        // Tiny groups keep the historical default; huge ones are capped.
        assert_eq!(derived_gossip_ttl(2, 3), 4);
        assert_eq!(derived_gossip_ttl(usize::MAX, 2), 12);

        // The derivation lives in the gossip session, not in the policy: a
        // 250-member view and a 20-member one get the same stack, so a
        // group that crosses 27, 81 or 243 members is not reconfigured.
        let policy = DefaultPolicy::default();
        for size in [20, 250] {
            let group = context_with((0..size).map(fixed).collect());
            assert_eq!(
                group.decide(&policy),
                Some(StackKind::Gossip { fanout: 3 }),
                "{size} members"
            );
        }
    }

    #[test]
    fn error_rates_select_retransmission_then_fec() {
        let moderate = context_with(vec![
            with_error(mobile(0), 0.01),
            with_error(mobile(1), 0.0),
        ]);
        assert_eq!(
            moderate.decide(&DefaultPolicy::default()),
            Some(StackKind::Reliable)
        );

        let severe = context_with(vec![
            with_error(mobile(0), 0.12),
            with_error(mobile(1), 0.0),
        ]);
        assert_eq!(
            severe.decide(&DefaultPolicy::default()),
            Some(StackKind::ErrorMasking { k: 4 })
        );
    }

    #[test]
    fn hybrid_takes_priority_over_error_rules() {
        let context = context_with(vec![fixed(0), with_error(mobile(1), 0.2)]);
        assert!(matches!(
            context.decide(&DefaultPolicy::default()),
            Some(StackKind::HybridMecho { .. })
        ));
    }

    #[test]
    fn a_lower_threshold_selects_gossip_for_a_smaller_group() {
        let policy = DefaultPolicy {
            large_group_threshold: 4,
            ..DefaultPolicy::default()
        };

        let snapshots: Vec<ContextSnapshot> = (0..5).map(fixed).collect();
        let context = context_with(snapshots);
        assert!(matches!(
            context.decide(&policy),
            Some(StackKind::Gossip { .. })
        ));
        assert_eq!(policy.name(), "default-rules");
    }
}
