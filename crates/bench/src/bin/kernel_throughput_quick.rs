//! Quick-mode kernel throughput measurement (Experiment E7).
//!
//! Unlike the Criterion bench, this runner finishes in a few seconds and
//! emits machine-readable results to `BENCH_kernel_throughput.json` so the
//! performance trajectory of the kernel hot path can be tracked PR over PR.
//! It measures, per stack depth:
//!
//! * end-to-end group sends per second through the full stack;
//! * session hops per second (each send traverses `depth + 2` sessions);
//! * heap allocations and allocated bytes per send, via a counting
//!   global allocator;
//! * the receive half: one of those sends' packets, encoded once, delivered
//!   to a second kernel over and over — nanoseconds and allocations per
//!   `deliver_packet`.
//!
//! Run with `cargo run --release -p morpheus-bench --bin
//! kernel_throughput_quick [output-path]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use morpheus_appia::config::{ChannelConfig, LayerSpec};
use morpheus_appia::event::{Event, EventSpec};
use morpheus_appia::events::DataEvent;
use morpheus_appia::kernel::EventContext;
use morpheus_appia::layer::{Layer, LayerParams};
use morpheus_appia::platform::{InPacket, NodeId, PacketDest, TestPlatform};
use morpheus_appia::session::Session;
use morpheus_appia::{Kernel, Message};
use morpheus_groupcomm::register_suite;

/// A `System` wrapper counting every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// A trivial pass-through micro-protocol used to pad the stack to the
/// requested depth.
struct PassThroughLayer {
    name: String,
}

struct PassThroughSession {
    name: String,
}

impl Layer for PassThroughLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn accepted_events(&self) -> Vec<EventSpec> {
        vec![EventSpec::All]
    }

    fn create_session(&self, _params: &LayerParams) -> Box<dyn Session> {
        Box::new(PassThroughSession {
            name: self.name.clone(),
        })
    }
}

impl Session for PassThroughSession {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, event: Event, ctx: &mut EventContext<'_>) {
        ctx.forward(event);
    }
}

fn deep_stack(node: NodeId, depth: usize) -> (Kernel, TestPlatform, morpheus_appia::ChannelId) {
    let mut kernel = Kernel::new();
    register_suite(&mut kernel);
    for index in 0..depth {
        kernel.layers_mut().register(PassThroughLayer {
            name: format!("relay{index}"),
        });
    }
    let mut platform = TestPlatform::new(node);
    let mut config = ChannelConfig::new("bench")
        .with_layer(LayerSpec::new("network"))
        .with_layer(LayerSpec::new("beb").with_param("members", "1,2,3,4"));
    for index in 0..depth {
        config = config.with_layer(LayerSpec::new(format!("relay{index}")));
    }
    config = config.with_layer(LayerSpec::new("app"));
    let id = kernel.create_channel(&config, &mut platform).unwrap();
    (kernel, platform, id)
}

struct DepthResult {
    depth: usize,
    sends_per_sec: f64,
    batched_sends_per_sec: f64,
    hops_per_sec: f64,
    allocations_per_send: f64,
    allocated_bytes_per_send: f64,
    ns_per_send: f64,
    allocations_per_receive: f64,
    ns_per_receive: f64,
}

/// The packet node 1 sends node 2 for one group send, as node 2 receives it.
fn one_packet(depth: usize) -> InPacket {
    let (mut kernel, mut platform, id) = deep_stack(NodeId(1), depth);
    let event = Event::down(DataEvent::to_group(
        NodeId(1),
        Message::with_payload(&b"x"[..]),
    ));
    kernel.dispatch_and_process(id, event, &mut platform);
    let out = platform
        .take_sent()
        .into_iter()
        .find(|out| out.dest == PacketDest::Node(NodeId(2)))
        .expect("beb sends every member a copy");
    InPacket {
        from: out.from,
        to: NodeId(2),
        class: out.class,
        channel: out.channel,
        // A buffer of its own, as a network backend would hand it over.
        payload: out.payload.to_vec().into(),
    }
}

/// Delivers the same packet `receives` times to node 2: `(allocations,
/// nanoseconds)` per `deliver_packet`, decode to application delivery.
fn measure_receive(depth: usize, receives: usize) -> (f64, f64) {
    let packet = one_packet(depth);
    let (mut kernel, mut platform, _) = deep_stack(NodeId(2), depth);
    let mut run = |count: usize| {
        for _ in 0..count {
            kernel
                .deliver_packet(packet.clone(), &mut platform)
                .expect("the packet decodes");
            // Keeps its capacity: recording a delivery does not allocate.
            platform.deliveries.clear();
        }
    };
    run(receives / 10);
    let (allocs_before, _) = alloc_snapshot();
    let started = Instant::now();
    run(receives);
    let elapsed = started.elapsed();
    let (allocs_after, _) = alloc_snapshot();
    (
        (allocs_after - allocs_before) as f64 / receives as f64,
        elapsed.as_nanos() as f64 / receives as f64,
    )
}

fn measure_depth(depth: usize, sends: usize) -> DepthResult {
    let (mut kernel, mut platform, id) = deep_stack(NodeId(1), depth);

    let run = |kernel: &mut Kernel, platform: &mut TestPlatform, count: usize| {
        for _ in 0..count {
            let event = Event::down(DataEvent::to_group(
                NodeId(1),
                Message::with_payload(&b"x"[..]),
            ));
            kernel.dispatch_and_process(id, event, platform);
        }
        platform.take_sent().len()
    };

    // Warm-up: populates route caches and steady-state buffer capacity.
    run(&mut kernel, &mut platform, sends / 10);

    let (allocs_before, bytes_before) = alloc_snapshot();
    let started = Instant::now();
    run(&mut kernel, &mut platform, sends);
    let elapsed = started.elapsed();
    let (allocs_after, bytes_after) = alloc_snapshot();

    // The same workload through the batch API: events enqueued in chunks of
    // 64 with a single queue drain per chunk.
    let batch_started = Instant::now();
    let mut remaining = sends;
    while remaining > 0 {
        let chunk = remaining.min(64);
        kernel.dispatch_batch_and_process(
            id,
            (0..chunk).map(|_| {
                Event::down(DataEvent::to_group(
                    NodeId(1),
                    Message::with_payload(&b"x"[..]),
                ))
            }),
            &mut platform,
        );
        remaining -= chunk;
    }
    platform.take_sent();
    let batch_elapsed = batch_started.elapsed();

    let (allocations_per_receive, ns_per_receive) = measure_receive(depth, sends);

    let secs = elapsed.as_secs_f64();
    // Each group send is handled by the app interface, `depth` relays, the
    // best-effort multicast layer and the network driver.
    let hops = (depth + 3) as f64;
    DepthResult {
        depth,
        sends_per_sec: sends as f64 / secs,
        batched_sends_per_sec: sends as f64 / batch_elapsed.as_secs_f64(),
        hops_per_sec: sends as f64 * hops / secs,
        allocations_per_send: (allocs_after - allocs_before) as f64 / sends as f64,
        allocated_bytes_per_send: (bytes_after - bytes_before) as f64 / sends as f64,
        ns_per_send: elapsed.as_nanos() as f64 / sends as f64,
        allocations_per_receive,
        ns_per_receive,
    }
}

/// Which per-receive allocations remain, recorded next to the numbers.
const RECEIVE_ALLOCATIONS: &str = "1 per packet: the Box<dyn EventPayload> the event factory \
     makes for the decoded event. Irreducible while events are boxed trait objects; the wire \
     name, the send header, every layer header and the payload are read in place or sliced \
     from the packet buffer, and the header stack (<= 4 headers) lives inline in the message.";

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernel_throughput.json".into());
    let sends: usize = std::env::var("BENCH_SENDS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(50_000);

    let depths = [0usize, 2, 4, 8, 12];
    let mut results = Vec::new();
    eprintln!("kernel-throughput quick mode: {sends} group sends per depth");
    eprintln!(
        "{:>6}  {:>14}  {:>14}  {:>14}  {:>12}  {:>14}  {:>12}  {:>12}  {:>14}",
        "depth",
        "sends/s",
        "batched/s",
        "hops/s",
        "ns/send",
        "allocs/send",
        "bytes/send",
        "ns/receive",
        "allocs/receive"
    );
    for depth in depths {
        let result = measure_depth(depth, sends);
        eprintln!(
            "{:>6}  {:>14.0}  {:>14.0}  {:>14.0}  {:>12.0}  {:>14.2}  {:>12.1}  {:>12.0}  {:>14.2}",
            result.depth,
            result.sends_per_sec,
            result.batched_sends_per_sec,
            result.hops_per_sec,
            result.ns_per_send,
            result.allocations_per_send,
            result.allocated_bytes_per_send,
            result.ns_per_receive,
            result.allocations_per_receive,
        );
        results.push(result);
    }

    let meta = morpheus_bench::RunMeta {
        seed: 0,
        n: 0,
        loss: 0.0,
    };

    // Hand-rolled JSON: the workspace builds offline, without serde_json.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernel-throughput\",\n");
    json.push_str("  \"mode\": \"quick\",\n");
    json.push_str(&format!("  {},\n", morpheus_bench::metadata_json(&meta)));
    json.push_str(&format!("  \"sends_per_depth\": {sends},\n"));
    json.push_str(&format!("  \"receives_per_depth\": {sends},\n"));
    json.push_str(&format!(
        "  \"receive_allocations\": \"{RECEIVE_ALLOCATIONS}\",\n"
    ));
    json.push_str("  \"results\": [\n");
    for (index, result) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"stack_depth\": {}, \"events_per_sec\": {:.0}, \
             \"batched_events_per_sec\": {:.0}, \"hops_per_sec\": {:.0}, \
             \"ns_per_send\": {:.1}, \"allocations_per_event\": {:.3}, \
             \"allocated_bytes_per_event\": {:.1}, \"ns_per_receive\": {:.1}, \
             \"allocs_per_receive\": {:.3}}}{}\n",
            result.depth,
            result.sends_per_sec,
            result.batched_sends_per_sec,
            result.hops_per_sec,
            result.ns_per_send,
            result.allocations_per_send,
            result.allocated_bytes_per_send,
            result.ns_per_receive,
            result.allocations_per_receive,
            if index + 1 == results.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&output, json).expect("write benchmark results");
    eprintln!("wrote {output}");
}
