//! Adaptation policies: mapping the distributed context to a stack choice.

use morpheus_appia::platform::NodeId;
use morpheus_cocaditem::{ContextSnapshot, ContextStore};

/// The stack configurations the Core subsystem can switch the data channel
/// between. Each kind corresponds to a trade-off discussed in the paper's
/// motivation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Plain best-effort multicast: one point-to-point message per member.
    /// Adequate for small homogeneous groups.
    BestEffort,
    /// Best-effort multicast plus NACK-based retransmission ("detect and
    /// recover"), preferable under small error rates.
    Reliable,
    /// Best-effort multicast plus XOR-parity forward error correction ("mask
    /// the errors"), preferable under large error rates.
    ErrorMasking {
        /// FEC block size.
        k: usize,
    },
    /// The Mecho adaptive multicast for hybrid fixed/mobile groups: mobile
    /// nodes send once to a fixed relay.
    HybridMecho {
        /// The fixed node acting as relay.
        relay: NodeId,
    },
    /// Epidemic multicast for large, geographically distributed groups.
    /// The push TTL is not part of the kind: each gossip session derives it
    /// from its installed view, so a group that grows or shrinks keeps its
    /// stack.
    Gossip {
        /// Push fan-out.
        fanout: usize,
    },
}

impl StackKind {
    /// A stable name identifying the configuration (used in reconfiguration
    /// commands and reports).
    pub fn name(&self) -> String {
        match self {
            StackKind::BestEffort => "best-effort".to_string(),
            StackKind::Reliable => "reliable".to_string(),
            StackKind::ErrorMasking { k } => format!("fec-k{k}"),
            StackKind::HybridMecho { relay } => format!("hybrid-mecho-relay{}", relay.0),
            StackKind::Gossip { fanout } => format!("gossip-f{fanout}"),
        }
    }

    /// The kind a [`StackKind::name`] names, or `None` for any other string
    /// (an unknown stack, a number with leading zeros, a sign or trailing
    /// bytes, one that overflows its field).
    pub fn from_name(name: &str) -> Option<StackKind> {
        let kind = if let Some(k) = name.strip_prefix("fec-k") {
            StackKind::ErrorMasking { k: k.parse().ok()? }
        } else if let Some(relay) = name.strip_prefix("hybrid-mecho-relay") {
            StackKind::HybridMecho {
                relay: NodeId(relay.parse().ok()?),
            }
        } else if let Some(fanout) = name.strip_prefix("gossip-f") {
            StackKind::Gossip {
                fanout: fanout.parse().ok()?,
            }
        } else if name == "reliable" {
            StackKind::Reliable
        } else {
            StackKind::BestEffort
        };
        // Only the canonical spelling passes: this refuses any other string
        // that fell through to `BestEffort`, and the `+4` and `04` that
        // `parse` takes.
        (kind.name() == name).then_some(kind)
    }
}

/// The dissemination stack one room shard runs over its subscribed
/// members. Where [`StackKind`] reconfigures the whole-group data channel,
/// a room kind adapts one shard of the room-sharded overlay — the same
/// context-driven selection, applied at per-room grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoomStackKind {
    /// Every link stays eager: each message is flooded to all room links.
    /// Right for small or quiet rooms, where the tree's prune/graft
    /// round-trips would cost more than the duplicates they save.
    DirectPush,
    /// Plumtree-style spanning tree: eager links prune to a broadcast tree
    /// on duplicates, lazy links carry announcements and graft repairs.
    TreePush {
        /// Hop budget of the eager push, derived from the room size.
        push_ttl: u32,
    },
}

impl RoomStackKind {
    /// A stable name for reports and reconfiguration commands.
    pub fn name(&self) -> String {
        match self {
            RoomStackKind::DirectPush => "room-direct".to_string(),
            RoomStackKind::TreePush { push_ttl } => format!("room-tree-t{push_ttl}"),
        }
    }
}

/// The distributed context an adaptation policy evaluates against: the
/// node's context store, read in place, restricted to the live members.
///
/// Suspected members are simply not listed in `members` — their snapshots
/// stay in the store, so a healed suspicion needs no republish, but no
/// answer counts them. The local node's entry is its latest sample rather
/// than the store's: the store only advances to *published* local versions,
/// and a re-sample too small to publish is still the freshest local context.
#[derive(Debug, Clone, Copy)]
pub struct GlobalContext<'a> {
    /// The node evaluating the policy (the coordinator).
    pub local: NodeId,
    /// The local node's latest sample, once it has taken one.
    pub local_sample: Option<&'a ContextSnapshot>,
    /// The live participants of the group.
    pub members: &'a [NodeId],
    /// The node's context store: the last snapshot published by each
    /// participant.
    pub store: &'a ContextStore,
}

impl<'a> GlobalContext<'a> {
    /// Number of live group members.
    pub fn group_size(&self) -> usize {
        self.members.len()
    }

    /// The context of one member: the latest sample for the local node, the
    /// store's entry for everyone else.
    fn snapshot_of(&self, member: NodeId) -> Option<&'a ContextSnapshot> {
        if member == self.local {
            self.local_sample
        } else {
            self.store.get(member)
        }
    }

    /// Every live member that has a context, with it, in membership order.
    fn snapshots(&self) -> impl Iterator<Item = (NodeId, &'a ContextSnapshot)> + '_ {
        self.members.iter().filter_map(|member| {
            self.snapshot_of(*member)
                .map(|snapshot| (*member, snapshot))
        })
    }

    /// Whether every live member has published at least one context
    /// snapshot.
    pub fn is_complete(&self) -> bool {
        self.members
            .iter()
            .all(|member| self.snapshot_of(*member).is_some())
    }

    /// Whether the live members mix fixed and mobile devices — the condition
    /// that triggers the Mecho adaptation in the paper.
    pub fn is_hybrid(&self) -> bool {
        let any = |mobile| {
            self.snapshots()
                .any(|(_, snapshot)| snapshot.is_mobile() == Some(mobile))
        };
        any(true) && any(false)
    }

    /// The highest error rate reported by any live member.
    pub fn max_error_rate(&self) -> f64 {
        self.snapshots()
            .filter_map(|(_, snapshot)| snapshot.error_rate())
            .fold(0.0, f64::max)
    }

    /// The live fixed node best suited to act as the Mecho relay: highest
    /// resource score first, then lowest node id as a deterministic
    /// tie-breaker.
    pub fn best_relay(&self) -> Option<NodeId> {
        self.snapshots()
            .filter_map(|(node, snapshot)| snapshot.device_class().map(|class| (node, class)))
            .filter(|(_, class)| class.is_fixed())
            .min_by_key(|(node, class)| (std::cmp::Reverse(class.resource_score()), node.0))
            .map(|(node, _)| node)
    }
}

/// An adaptation policy: decides which stack configuration best fits the
/// current distributed context.
pub trait AdaptationPolicy {
    /// A short policy name for reports.
    fn name(&self) -> &'static str;

    /// Evaluates the context and returns the preferred configuration, or
    /// `None` when the policy has no opinion (e.g. not enough context yet).
    fn evaluate(&self, context: &GlobalContext<'_>) -> Option<StackKind>;
}

#[cfg(test)]
mod tests {
    use morpheus_appia::platform::NodeProfile;
    use morpheus_cocaditem::{ContextKey, ContextValue};

    use super::*;

    #[test]
    fn stack_kind_names_are_stable_and_distinct() {
        let kinds = [
            StackKind::BestEffort,
            StackKind::Reliable,
            StackKind::ErrorMasking { k: 4 },
            StackKind::HybridMecho { relay: NodeId(0) },
            StackKind::Gossip { fanout: 3 },
        ];
        let mut names: Vec<String> = kinds.iter().map(StackKind::name).collect();
        assert_eq!(names[3], "hybrid-mecho-relay0");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn every_name_parses_back_to_its_kind() {
        let kinds = [
            StackKind::BestEffort,
            StackKind::Reliable,
            StackKind::ErrorMasking { k: 4 },
            StackKind::ErrorMasking { k: 0 },
            StackKind::ErrorMasking { k: usize::MAX },
            StackKind::HybridMecho { relay: NodeId(0) },
            StackKind::HybridMecho { relay: NodeId(17) },
            StackKind::HybridMecho {
                relay: NodeId(u32::MAX),
            },
            StackKind::Gossip { fanout: 3 },
            StackKind::Gossip { fanout: usize::MAX },
        ];
        for kind in kinds {
            assert_eq!(StackKind::from_name(&kind.name()), Some(kind), "{kind:?}");
        }
        // Every kind the default policy can emit, with its own parameters.
        let policy = crate::rules::DefaultPolicy::default();
        for kind in [
            StackKind::ErrorMasking { k: policy.fec_k },
            StackKind::Gossip {
                fanout: policy.gossip_fanout,
            },
        ] {
            assert_eq!(StackKind::from_name(&kind.name()), Some(kind));
        }
    }

    #[test]
    fn anything_but_a_canonical_name_is_refused() {
        let too_wide = format!("fec-k{}0", usize::MAX);
        let refused = [
            "",
            "garbage",
            "best-effort ",
            " reliable",
            "Reliable",
            "fec-k",
            "fec-k04",
            "fec-k+4",
            "fec-k-4",
            "fec-k4x",
            too_wide.as_str(),
            "hybrid-mecho-relay",
            "hybrid-mecho-relay00",
            "hybrid-mecho-relay4294967296",
            "hybrid-mecho-relay-1",
            "gossip-f",
            "gossip-f3 ",
            "gossip-f03",
            "gossip-f3-t6",
            "gossip-f\u{0}",
            "hybrid-mecho-relay\u{663}",
        ];
        for name in refused {
            assert_eq!(StackKind::from_name(name), None, "{name:?}");
        }
    }

    fn fixed(node: u32) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::fixed_pc(NodeId(node)), 1)
    }

    fn mobile(node: u32) -> ContextSnapshot {
        ContextSnapshot::from_profile(&NodeProfile::mobile_pda(NodeId(node)), 1)
    }

    fn store_of(snapshots: Vec<ContextSnapshot>) -> ContextStore {
        let mut store = ContextStore::new();
        for snapshot in snapshots {
            store.update(snapshot);
        }
        store
    }

    #[test]
    fn global_context_completeness() {
        let store = store_of(vec![fixed(0)]);
        let sample = fixed(0);
        let members = [NodeId(0), NodeId(1)];
        let context = GlobalContext {
            local: NodeId(0),
            local_sample: Some(&sample),
            members: &members,
            store: &store,
        };
        assert_eq!(context.group_size(), 2);
        assert!(!context.is_complete());
    }

    #[test]
    fn only_live_members_are_counted() {
        // Node 2 (mobile) is in the store but not live: the live group is
        // homogeneous until it is listed again.
        let store = store_of(vec![fixed(1), mobile(2), fixed(5), fixed(3)]);
        let sample = fixed(0);
        let context = |members: &'static [NodeId]| GlobalContext {
            local: NodeId(0),
            local_sample: Some(&sample),
            members,
            store: &store,
        };
        let without = context(&[NodeId(0), NodeId(1)]);
        assert!(without.is_complete());
        assert!(!without.is_hybrid());
        let with = context(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(with.is_hybrid());
        assert_eq!(with.best_relay(), Some(NodeId(0)), "lowest fixed id");
        assert_eq!(context(&[NodeId(2)]).best_relay(), None);
        assert_eq!(
            context(&[NodeId(2), NodeId(5), NodeId(3)]).best_relay(),
            Some(NodeId(3))
        );
    }

    #[test]
    fn the_local_entry_is_the_latest_sample_not_the_store() {
        let mut published = fixed(0);
        published.set(ContextKey::ErrorRate, ContextValue::Number(0.0));
        let store = store_of(vec![published, fixed(1)]);
        let mut sample = fixed(0);
        sample.set(ContextKey::ErrorRate, ContextValue::Number(0.15));
        let members = [NodeId(0), NodeId(1)];
        let context = GlobalContext {
            local: NodeId(0),
            local_sample: Some(&sample),
            members: &members,
            store: &store,
        };
        assert!((context.max_error_rate() - 0.15).abs() < 1e-9);
        let unsampled = GlobalContext {
            local_sample: None,
            ..context
        };
        assert!(!unsampled.is_complete(), "no sample yet, no local entry");
        assert_eq!(unsampled.max_error_rate(), 0.0);
    }
}
