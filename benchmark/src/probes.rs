//! Layer probes: timed calls into each crate's public functions, one layer
//! at a time, sized from the workload's own report. Traced invocation only.
//!
//! Each probe warms up for a tenth of its calls, then times the rest with
//! the wall clock and the counting allocator. The probes price single
//! operations; `testbed.unattributed_share` multiplies those prices by the
//! operation counts of the run report — an **estimate from a cost model**,
//! not a measurement of where the run spent its time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use morpheus_appia::config::{ChannelConfig, LayerSpec};
use morpheus_appia::event::{Direction, Event, EventSpec};
use morpheus_appia::events::DataEvent;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{Layer, LayerParams};
use morpheus_appia::platform::{NodeId, NodeProfile, TestPlatform};
use morpheus_appia::session::Session;
use morpheus_appia::testing::Harness;
use morpheus_appia::wire::{Wire, WireReader, WireWriter};
use morpheus_appia::{Kernel, Message};
use morpheus_cocaditem::context::ContextSnapshot;
use morpheus_cocaditem::ContextStore;
use morpheus_core::{MorpheusNode, NodeOptions};
use morpheus_groupcomm::beb::BebLayer;
use morpheus_groupcomm::failure_detector::FailureDetectorLayer;
use morpheus_groupcomm::gossip::GossipLayer;
use morpheus_groupcomm::headers::LivenessDigest;
use morpheus_groupcomm::mecho::MechoLayer;
use morpheus_groupcomm::register_suite;
use morpheus_groupcomm::reliable::ReliableLayer;
use morpheus_groupcomm::vsync::VsyncLayer;
use morpheus_netsim::{
    EventQueue, Network, NodeId as SimNodeId, Packet, PacketTarget, SimRng, SimTime, Topology,
    TrafficClass,
};
use morpheus_testbed::TopologyChoice;

use crate::alloc;
use crate::measure::Measurement;
use crate::trace::Trace;

/// Calls a probe of a cheap operation times.
const CALLS: u64 = 50_000;
/// Stack depth of the dispatch probe, as `kernel_throughput_quick` uses.
const DISPATCH_DEPTH: usize = 12;
const PAYLOAD: [u8; 64] = [b'x'; 64];

/// Price of one operation.
#[derive(Debug, Clone, Copy)]
struct Price {
    ns: f64,
    allocations: f64,
}

/// Warms `body` up, then times `calls` of it. `body` returns how many
/// operations the call performed.
fn price(calls: u64, mut body: impl FnMut(u64) -> u64) -> Price {
    for call in 0..calls / 10 {
        black_box(body(call));
    }
    let allocations = alloc::allocations();
    let started = Instant::now();
    let mut operations = 0;
    for call in 0..calls {
        operations += body(calls + call);
    }
    let elapsed = started.elapsed();
    let allocations = alloc::allocations() - allocations;
    let operations = operations.max(1) as f64;
    Price {
        ns: elapsed.as_nanos() as f64 / operations,
        allocations: allocations as f64 / operations,
    }
}

fn members_param(nodes: usize) -> String {
    (0..nodes)
        .map(|id| id.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn group_send(source: NodeId) -> Event {
    Event::down(DataEvent::to_group(
        source,
        Message::with_payload(&PAYLOAD[..]),
    ))
}

/// `TestPlatform` records every side effect; a probe has no use for them.
fn forget_side_effects(platform: &mut TestPlatform) {
    platform.sent.clear();
    platform.timers.clear();
    platform.cancelled.clear();
    platform.deliveries.clear();
}

struct PassThroughLayer(String);
struct PassThroughSession(String);

impl Layer for PassThroughLayer {
    fn name(&self) -> &str {
        &self.0
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::All]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(PassThroughSession(self.0.clone()))
    }
}

impl Session for PassThroughSession {
    fn layer_name(&self) -> &str {
        &self.0
    }

    fn handle(&mut self, event: Event, ctx: &mut EventContext<'_>) {
        ctx.forward(event);
    }
}

/// Group sends through network + beb + 12 pass-through layers + app: the
/// kernel's dispatch cost per session hop.
fn dispatch() -> Price {
    let mut kernel = Kernel::new();
    register_suite(&mut kernel);
    let mut config = ChannelConfig::new("probe")
        .with_layer(LayerSpec::new("network"))
        .with_layer(LayerSpec::new("beb").with_param("members", "1,2,3,4"));
    for index in 0..DISPATCH_DEPTH {
        let name = format!("relay{index}");
        kernel.layers_mut().register(PassThroughLayer(name.clone()));
        config = config.with_layer(LayerSpec::new(name));
    }
    config = config.with_layer(LayerSpec::new("app"));
    let mut platform = TestPlatform::new(NodeId(1));
    let channel = kernel
        .create_channel(&config, &mut platform)
        .expect("the probe stack is built from registered layers");
    price(CALLS, |call| {
        kernel.dispatch_and_process(channel, group_send(NodeId(1)), &mut platform);
        if call % 256 == 0 {
            forget_side_effects(&mut platform);
        }
        1
    })
}

/// `Message` encode + decode with four layer headers.
fn codec() -> Price {
    let mut message = Message::with_payload(&PAYLOAD[..]);
    for header in 0..4u8 {
        message.push_header(vec![header; 12]);
    }
    price(CALLS, |_| {
        let mut writer = WireWriter::new();
        message.encode(&mut writer);
        let bytes = writer.finish();
        let decoded = Message::decode(&mut WireReader::new(&bytes));
        black_box(decoded.is_ok());
        1
    })
}

/// One layer alone in a [`Harness`]: a group send goes down at the sender,
/// and what comes out at the bottom goes up at a receiver. The price is per
/// event the layer handled.
fn layer<L: Layer + 'static>(
    make: fn() -> L,
    params: &LayerParams,
    sender: NodeProfile,
    receiver: NodeProfile,
) -> Price {
    let source = sender.node_id;
    let mut sender_platform = TestPlatform::with_profile(sender);
    let mut receiver_platform = TestPlatform::with_profile(receiver);
    let mut sending = Harness::new(make(), params, &mut sender_platform);
    let mut receiving = Harness::new(make(), params, &mut receiver_platform);
    price(CALLS, |call| {
        let mut handled = 1;
        for mut out in sending.run_down(group_send(source), &mut sender_platform) {
            out.direction = Direction::Up;
            black_box(receiving.run_up(out, &mut receiver_platform));
            handled += 1;
        }
        receiving.drain_down();
        sending.drain_up();
        if call % 256 == 0 {
            forget_side_effects(&mut sender_platform);
            forget_side_effects(&mut receiver_platform);
        }
        handled
    })
}

/// Liveness digest of `nodes` entries: encode + decode.
fn liveness_digest(nodes: usize) -> Price {
    let digest = LivenessDigest {
        entries: (0..nodes as u32)
            .map(|id| (NodeId(id), u64::from(id) * 7))
            .collect(),
    };
    price(CALLS, |_| {
        let mut writer = WireWriter::new();
        digest.encode(&mut writer);
        let bytes = writer.finish();
        black_box(LivenessDigest::decode(&mut WireReader::new(&bytes)).is_ok());
        1
    })
}

/// Context store of `nodes` snapshots: digest + export + merge of the export.
fn context_digest(nodes: usize) -> Price {
    let mut store = ContextStore::new();
    for id in 0..nodes as u32 {
        store.update(ContextSnapshot::from_profile(
            &NodeProfile::fixed_pc(NodeId(id)),
            1_000,
        ));
    }
    // An O(n) operation: fewer calls keep the probe under a second at n = 200.
    price(CALLS / 10, |_| {
        black_box(store.digest());
        let exported = store.export_bytes();
        black_box(store.import_merge(&exported).is_ok());
        1
    })
}

/// Event queue held at `depth`: one pop + one push.
fn queue(depth: u64) -> Price {
    let mut rng = SimRng::new(1);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for event in 0..depth.max(1) {
        queue.push(SimTime::from_millis(rng.random_below(1_000)), event);
    }
    price(CALLS * 4, |call| {
        if let Some((at, event)) = queue.pop() {
            queue.push(at + rng.random_below(1_000), event ^ call);
        }
        1
    })
}

fn topology_of(choice: TopologyChoice, nodes: usize) -> Topology {
    match choice {
        TopologyChoice::HybridCell => Topology::hybrid_cell(1, nodes - 1),
        TopologyChoice::Lan { native_multicast } => Topology::lan(nodes, native_multicast),
        TopologyChoice::AdHoc => Topology::ad_hoc(nodes),
        TopologyChoice::Wan => Topology::wan(nodes),
    }
}

/// `Network::send`, unicast, on the workload's topology.
fn network_send(choice: TopologyChoice, nodes: usize) -> Price {
    let mut network = Network::new(topology_of(choice, nodes));
    let mut rng = SimRng::new(1);
    let nodes = nodes as u64;
    price(CALLS, |call| {
        let from = call % nodes;
        let packet = Packet {
            from: SimNodeId(from as u32),
            target: PacketTarget::Unicast(SimNodeId(((from + 1) % nodes) as u32)),
            size_bytes: 128,
            class: TrafficClass::Data,
            payload: (),
        };
        black_box(network.send(packet, SimTime::from_millis(call), &mut rng));
        1
    })
}

/// `MorpheusNode::new` for one member of a `nodes`-member group.
fn node_boot(nodes: usize) -> Price {
    let members: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    price(200, |_| {
        let mut platform = TestPlatform::new(NodeId(0));
        let node = MorpheusNode::new(NodeOptions::new(members.clone()), &mut platform);
        black_box(node.is_ok());
        1
    })
}

/// Runs every probe and sets the probe-based per-layer metrics of
/// `measurement`, recording one span per probe under a `probes` root.
pub fn run(measurement: &mut Measurement) {
    let scenario =
        &(measurement.workload.scenarios)(measurement.seed, crate::workloads::Size::Full)
            [measurement.workload.sender_scenario.unwrap_or(0)];
    let nodes = scenario.device_count();
    let topology = scenario.topology;
    let mut members = LayerParams::new();
    members.insert("members".into(), members_param(nodes));
    let fixed = |id| NodeProfile::fixed_pc(NodeId(id));

    let measured = |name: &str| measurement.per_layer.get(name).unwrap_or(0.0);
    let max_queue_depth = measured("netsim.max_queue_depth") as u64;
    let (events, wall_raw_ns) = (
        measured("testbed.events"),
        measured("testbed.wall_raw_s") * 1e9,
    );
    let clock = &measurement.clock;
    let mut spans: Vec<(&'static str, Duration, Duration)> = Vec::new();
    let mut probe = |name: &'static str, body: &mut dyn FnMut() -> Price| -> Price {
        let started = clock.work_clock();
        let price = body();
        spans.push((name, started, clock.work_clock()));
        price
    };

    let dispatch = probe("appia.dispatch", &mut dispatch);
    let codec = probe("appia.codec", &mut codec);
    let layers: [(&'static str, Price); 6] = [
        (
            "beb",
            probe("groupcomm.beb", &mut || {
                layer(|| BebLayer, &members, fixed(0), fixed(1))
            }),
        ),
        (
            "mecho",
            // A mobile sender and the fixed relay: the path Figure 3 measures.
            probe("groupcomm.mecho", &mut || {
                layer(
                    || MechoLayer,
                    &members,
                    NodeProfile::mobile_pda(NodeId(1)),
                    fixed(0),
                )
            }),
        ),
        (
            "reliable",
            probe("groupcomm.reliable", &mut || {
                layer(|| ReliableLayer, &members, fixed(0), fixed(1))
            }),
        ),
        // The bare push path: no credit window, no batching (both need the
        // timers and digests of a live stack).
        (
            "gossip",
            probe("groupcomm.gossip", &mut || {
                layer(|| GossipLayer, &members, fixed(0), fixed(1))
            }),
        ),
        (
            "fd",
            probe("groupcomm.fd", &mut || {
                layer(|| FailureDetectorLayer, &members, fixed(0), fixed(1))
            }),
        ),
        (
            "vsync",
            probe("groupcomm.vsync", &mut || {
                layer(|| VsyncLayer, &members, fixed(0), fixed(1))
            }),
        ),
    ];
    let liveness = probe("groupcomm.headers", &mut || liveness_digest(nodes));
    let context = probe("cocaditem.digest", &mut || context_digest(nodes));
    let queue = probe("netsim.queue", &mut || queue(max_queue_depth));
    let send = probe("netsim.send", &mut || network_send(topology, nodes));
    let boot = probe("core.node_boot", &mut || node_boot(nodes));

    let out = &mut measurement.per_layer;
    out.set(
        "appia.dispatch_ns_per_hop",
        dispatch.ns / (DISPATCH_DEPTH + 3) as f64,
    );
    out.set("appia.allocs_per_send", dispatch.allocations);
    out.set("appia.codec_ns_per_msg", codec.ns);
    for (name, price) in &layers {
        out.set(&format!("groupcomm.{name}.ns_per_event"), price.ns);
        out.set(
            &format!("groupcomm.{name}.allocs_per_event"),
            price.allocations,
        );
    }
    out.set("groupcomm.headers.liveness_digest_ns", liveness.ns);
    out.set("cocaditem.digest_ns", context.ns);
    out.set("netsim.queue_ns_per_op", queue.ns);
    out.set("netsim.send_ns_per_packet", send.ns);
    out.set("core.node_boot_us", boot.ns / 1e3);

    // The cost model: every event crosses the queue once; every packet is
    // sent, encoded and decoded once; a data packet is handled by the
    // workload's multicast layer at both ends; a control packet carries a
    // liveness digest through the failure detector; a context packet carries
    // a context digest. What the model does not price is the runner's own.
    let data_layer_ns = measurement
        .workload
        .data_layers
        .iter()
        .filter_map(|wanted| layers.iter().find(|(name, _)| name == wanted))
        .map(|(_, price)| price.ns)
        .sum::<f64>()
        / measurement.workload.data_layers.len().max(1) as f64;
    let fd_ns = layers
        .iter()
        .find(|(name, _)| *name == "fd")
        .map_or(0.0, |(_, price)| price.ns);
    let packets = measurement.packets;
    let all_packets = (packets.data + packets.control + packets.context) as f64;
    let priced_ns = events * queue.ns
        + all_packets * (send.ns + codec.ns)
        + packets.data as f64 * 2.0 * data_layer_ns
        + packets.control as f64 * (fd_ns + liveness.ns)
        + packets.context as f64 * context.ns;
    out.set(
        "testbed.unattributed_share",
        1.0 - priced_ns / wall_raw_ns.max(1.0),
    );

    if let Some(trace) = &mut measurement.trace {
        record_spans(trace, &spans);
    }
}

fn record_spans(trace: &mut Trace, spans: &[(&'static str, Duration, Duration)]) {
    let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
        return;
    };
    let root = trace.record(None, "probes", first.1, last.2);
    for (name, started, ended) in spans {
        trace.record(Some(root), *name, *started, *ended);
    }
}
