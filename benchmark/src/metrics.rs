//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected (0 for per-layer metrics, which
    /// have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a chat user, or whoever pays for the machines, sees. Every workload
/// reports all of them; none is ever 0.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.2),
    e2e("peak_heap_mb", "MiB", Lower, 0.05),
    e2e("allocs_per_delivery", "count", Lower, 0.02),
    e2e("wire_bytes_per_delivery", "B", Lower, 0.02),
    e2e("sender_tx_per_msg", "packets", Lower, 0.05),
    e2e("on_time_share", "ratio", Higher, 0.02),
    e2e("delivered_share", "ratio", Higher, 0.001),
];

/// Single layers, named after the crate or module that does the work.
pub const PER_LAYER: [MetricDef; 59] = [
    // From the run report and the binding's timestamps.
    layer("testbed.events", "count", Lower),
    layer("testbed.ns_per_event", "ns", Lower),
    layer("testbed.boot_s", "s", Lower),
    layer("testbed.steady_s", "s", Lower),
    layer("testbed.drain_s", "s", Lower),
    layer("testbed.tick_ms_p50", "ms", Lower),
    layer("testbed.tick_ms_p99", "ms", Lower),
    layer("testbed.setup_raw_s", "s", Lower),
    layer("testbed.wall_raw_s", "s", Lower),
    layer("testbed.machine_slowdown", "ratio", Lower),
    layer("testbed.generator_late_ms", "ms", Lower),
    layer("netsim.packets_sent", "count", Lower),
    layer("netsim.max_queue_depth", "count", Lower),
    layer("netsim.shed_packets", "count", Lower),
    layer("netsim.dropped_packets", "count", Lower),
    layer("groupcomm.data_bytes_per_node_s", "B/node/s", Lower),
    layer("groupcomm.control_bytes_per_node_s", "B/node/s", Lower),
    layer("groupcomm.repair_bytes_per_node_s", "B/node/s", Lower),
    layer("cocaditem.context_bytes_per_node_s", "B/node/s", Lower),
    layer("groupcomm.gossip.dup_ratio", "ratio", Lower),
    layer("groupcomm.gossip.repaired_share", "ratio", Lower),
    layer("groupcomm.gossip.repair_pulls", "count", Lower),
    layer("groupcomm.gossip.deferred_pushes", "count", Lower),
    layer("groupcomm.gossip.outbox_shed", "count", Lower),
    layer("groupcomm.gossip.floor_escalations", "count", Lower),
    layer("groupcomm.gossip.catchups", "count", Lower),
    layer("groupcomm.vsync.view_changes", "count", Lower),
    layer("groupcomm.recovery.rejoin_ms", "ms", Lower),
    layer("groupcomm.recovery.rejoin_bytes", "B", Lower),
    layer("groupcomm.round.retransmits", "count", Lower),
    layer("core.round_ms_max", "ms", Lower),
    layer("core.reconfigurations", "count", Lower),
    layer("cocaditem.converged_ms", "ms", Lower),
    layer("chat.deliveries", "count", Higher),
    layer("chat.duplicates", "count", Lower),
    layer("chat.late_intervals_p99", "count", Lower),
    layer("chat.failed_share", "ratio", Lower),
    // From the layer probes (traced invocation only).
    layer("appia.dispatch_ns_per_hop", "ns", Lower),
    layer("appia.allocs_per_send", "count", Lower),
    layer("appia.codec_ns_per_msg", "ns", Lower),
    layer("groupcomm.beb.ns_per_event", "ns", Lower),
    layer("groupcomm.beb.allocs_per_event", "count", Lower),
    layer("groupcomm.mecho.ns_per_event", "ns", Lower),
    layer("groupcomm.mecho.allocs_per_event", "count", Lower),
    layer("groupcomm.reliable.ns_per_event", "ns", Lower),
    layer("groupcomm.reliable.allocs_per_event", "count", Lower),
    layer("groupcomm.gossip.ns_per_event", "ns", Lower),
    layer("groupcomm.gossip.allocs_per_event", "count", Lower),
    layer("groupcomm.fd.ns_per_event", "ns", Lower),
    layer("groupcomm.fd.allocs_per_event", "count", Lower),
    layer("groupcomm.vsync.ns_per_event", "ns", Lower),
    layer("groupcomm.vsync.allocs_per_event", "count", Lower),
    layer("groupcomm.headers.liveness_digest_ns", "ns", Lower),
    layer("cocaditem.digest_ns", "ns", Lower),
    layer("netsim.queue_ns_per_op", "ns", Lower),
    layer("netsim.send_ns_per_packet", "ns", Lower),
    layer("core.node_boot_us", "us", Lower),
    layer("testbed.unattributed_share", "ratio", Lower),
    layer("testbed.trace_overhead_share", "ratio", Lower),
];

/// Measured values, in the order of the table they belong to.
#[derive(Debug, Clone)]
pub struct Values {
    table: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn of(table: &'static [MetricDef]) -> Self {
        Self {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Sets one metric. A name outside the table is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .table
            .iter()
            .position(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.values[index] = Some(value);
    }

    pub fn defs(&self) -> &'static [MetricDef] {
        self.table
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let index = self.table.iter().position(|def| def.name == name)?;
        self.values[index]
    }

    /// Every metric of the table with its value. A metric nobody set is a
    /// bug in the benchmark: the contract is "all of them, every time".
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.table.iter().zip(&self.values).map(|(def, value)| {
            let value = value.unwrap_or_else(|| panic!("metric `{}` was never set", def.name));
            (def, value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::reader;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars
            .next()
            .is_some_and(|first| first.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|ch| ch.is_ascii_alphanumeric() || matches!(ch, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(def.name), "bad metric name {}", def.name);
            assert!(seen.insert(def.name), "{} is used twice", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def.unit.chars().all(|ch| ch.is_ascii_alphanumeric()
                        || matches!(ch, '_' | '/' | '%' | '.' | '-')),
                "bad unit {}",
                def.unit
            );
        }
        for workload in &WORKLOADS {
            assert!(
                well_formed(workload.name),
                "bad workload name {}",
                workload.name
            );
            assert!(
                seen.insert(workload.name),
                "{} is used twice",
                workload.name
            );
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|def| def.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for def in &END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
            assert!(def.bound <= setup.bound);
        }
    }

    /// `BENCHMARK.json` and the tables say the same thing, both ways.
    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let file = reader::parse(text).expect("BENCHMARK.json parses");
        let Json::Object(members) = &file else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let listed: Vec<(&str, &str)> = file
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = file.get(key).expect("metric list").items();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                let bound = entry.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                } else {
                    assert_eq!(bound, None, "per-layer metrics have no bound");
                }
            }
        }
    }

    #[test]
    fn values_come_out_in_table_order() {
        let mut values = Values::of(&END_TO_END);
        for (index, def) in END_TO_END.iter().enumerate().rev() {
            values.set(def.name, index as f64 + 1.0);
        }
        let names: Vec<&str> = values.iter().map(|(def, _)| def.name).collect();
        assert_eq!(names[0], "setup_s");
        assert_eq!(values.get("wall_s"), Some(2.0));
    }
}
