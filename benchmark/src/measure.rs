//! One invocation of one workload: repetitions of *(inputs → pilot → boot →
//! measured window)*, the correctness gate, and the metrics.

use std::time::{Duration, Instant};

use morpheus_testbed::{RunReport, Runner, Scenario, WireBytes};

use crate::alloc;
use crate::binding::{BenchBinding, Schedule, Stamps, Tally};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::speed::{Phase, PhaseTime, SpeedMeter};
use crate::stats::{median, quantile};
use crate::trace::{SpanId, Trace};
use crate::workloads::{Size, Workload};

/// Repetitions an untraced invocation always makes, so its medians are of
/// at least this many values.
const MIN_REPETITIONS: usize = 3;

/// An invocation stops adding repetitions past this, whatever `--seconds`
/// says: the driver allows one invocation 180 s.
const INVOCATION_BUDGET: Duration = Duration::from_secs(110);

/// How far the allocation counts of two repetitions may differ: 1, plus 1
/// in 100,000. Every other count repeats exactly, but `std`'s hash maps
/// seed each instance at random, and whether a full table rehashes in place
/// or reallocates depends on where its tombstones fell.
fn allocation_slack(allocations: u64) -> u64 {
    1 + allocations / 100_000
}

/// At most this many spans per steady phase; longer runs group intervals.
const MAX_TICK_SPANS: usize = 256;

/// One scenario run, as seen from outside.
struct ScenarioRun {
    report: RunReport,
    tally: Tally,
    stamps: Stamps,
    schedule: Schedule,
    /// Work-clock readings around the call into the runner.
    started: Duration,
    returned: Duration,
    aggregated: Duration,
    /// Allocations between the first send and the runner's return.
    window_allocations: u64,
    /// Packets of all classes sent by the workload's senders, and the
    /// messages they originated.
    sender_tx: u64,
    sender_messages: u64,
}

/// Counts that must come out the same on every repetition of one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counts {
    events: u64,
    tally: Tally,
    wire: WireBytes,
    packets_sent: u64,
    sender_tx: u64,
    sender_messages: u64,
}

/// One repetition.
struct Repetition {
    counts: Counts,
    runs: Vec<ScenarioRun>,
    setup: PhaseTime,
    window: PhaseTime,
    window_allocations: u64,
    peak_heap_bytes: u64,
    /// Work-clock readings: start, inputs built, pilot done, end.
    marks: [Duration; 4],
}

/// Packets sent, by class.
#[derive(Debug, Clone, Copy, Default)]
pub struct PacketCounts {
    pub data: u64,
    pub control: u64,
    pub context: u64,
}

/// What an invocation measured.
pub struct Measurement {
    pub workload: &'static Workload,
    pub seed: u64,
    pub repetitions: usize,
    /// Sizes of the measured run, for the stamp in the output.
    pub nodes: usize,
    pub messages: u64,
    /// Everything wrong with the outputs; empty means correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    /// Per-layer metrics; the probe-based ones are set only under `--trace`.
    pub per_layer: Values,
    pub ticks: TickSummary,
    /// Packets of the last repetition by class: with `per_layer`, what the
    /// probes' cost model multiplies its prices by.
    pub packets: PacketCounts,
    pub trace: Option<Trace>,
    /// The clock the trace's spans are read from.
    pub clock: SpeedMeter,
}

fn run_scenario(
    scenario: &Scenario,
    senders_of_interest: bool,
    meter: &mut SpeedMeter,
    measured: bool,
) -> ScenarioRun {
    let mut binding = BenchBinding::new(scenario, meter, measured);
    let started = binding.clock();
    let report = Runner::new().run_with_binding(scenario, &mut binding);
    let returned = binding.clock();
    let allocations = alloc::allocations();
    let (tally, stamps, schedule) = binding.finish();
    let (mut sender_tx, mut sender_messages) = (0, 0);
    if senders_of_interest {
        for sender in &scenario.workload.senders {
            sender_tx += report.node(*sender).map_or(0, |node| node.sent_total());
        }
        sender_messages = tally.messages;
    }
    ScenarioRun {
        window_allocations: allocations - stamps.allocations_at_first_send,
        aggregated: meter.work_clock(),
        report,
        tally,
        stamps,
        schedule,
        started,
        returned,
        sender_tx,
        sender_messages,
    }
}

/// The checks every scenario run must pass.
fn gate(scenario: &Scenario, run: &ScenarioRun, problems: &mut Vec<String>) {
    let (name, report, tally) = (&scenario.name, &run.report, &run.tally);
    let mut check = |wrong: bool, what: String| {
        if wrong {
            problems.push(format!("{name}: {what}"));
        }
    };
    check(
        report.messages_lost != 0,
        format!("{} data packets lost on live links", report.messages_lost),
    );
    if let Some(wedge) = &report.wedge {
        check(
            true,
            format!("wedged at {} ms: {}", wedge.at_ms, wedge.reason),
        );
    }
    check(
        report.total_errors() > report.corrupted_packets,
        format!("{} processing errors", report.total_errors()),
    );
    check(
        tally.undecodable != 0,
        format!("{} payloads failed to decode", tally.undecodable),
    );
    check(
        tally.duplicates != 0,
        format!("{} pairs delivered twice", tally.duplicates),
    );
    check(
        tally.deliveries != report.total_app_deliveries(),
        format!(
            "the binding saw {} deliveries, the report counts {}",
            tally.deliveries,
            report.total_app_deliveries()
        ),
    );
    check(
        run.stamps.first_send.is_none(),
        "no message was sent".to_string(),
    );
    for member in scenario.restarting_members() {
        let rejoined = report
            .node(member)
            .is_some_and(|node| node.rejoin.is_some());
        check(!rejoined, format!("{member} restarted and never rejoined"));
    }
}

fn repetition(
    workload: &'static Workload,
    seed: u64,
    meter: &mut SpeedMeter,
    problems: &mut Vec<String>,
) -> Repetition {
    meter.switch(Some(Phase::Setup));
    let start = meter.work_clock();
    let pilots = (workload.scenarios)(seed, Size::Pilot);
    let scenarios = (workload.scenarios)(seed, Size::Full);
    let inputs_built = meter.work_clock();

    for scenario in &pilots {
        let run = run_scenario(scenario, false, meter, false);
        gate(scenario, &run, problems);
    }
    let pilot_done = meter.work_clock();

    let mut runs = Vec::with_capacity(scenarios.len());
    let mut peak_heap_bytes = 0;
    for (index, scenario) in scenarios.iter().enumerate() {
        let of_interest = workload
            .sender_scenario
            .is_none_or(|wanted| wanted == index);
        // The first send inside opens the window; it closes here, once the
        // runner has returned and the run's counts are aggregated.
        let run = run_scenario(scenario, of_interest, meter, true);
        peak_heap_bytes = peak_heap_bytes.max(alloc::peak_bytes());
        gate(scenario, &run, problems);
        meter.switch(Some(Phase::Setup));
        runs.push(run);
    }
    meter.switch(None);
    let end = meter.work_clock();
    let [setup, window] = meter.take_phases();

    let mut counts = Counts::default();
    for run in &runs {
        counts.events += run.report.events_processed;
        counts.tally.add(&run.tally);
        counts.wire.add(&run.report.wire_bytes_totals());
        counts.packets_sent += run
            .report
            .nodes
            .iter()
            .map(|node| node.sent_total())
            .sum::<u64>();
        counts.sender_tx += run.sender_tx;
        counts.sender_messages += run.sender_messages;
    }
    Repetition {
        window_allocations: runs.iter().map(|run| run.window_allocations).sum(),
        counts,
        runs,
        setup,
        window,
        peak_heap_bytes,
        marks: [start, inputs_built, pilot_done, end],
    }
}

/// Runs one workload: under `traced`, a reference repetition and a traced
/// one; otherwise repetitions until `seconds` of measured window have
/// accumulated (and at least [`MIN_REPETITIONS`]).
pub fn measure(workload: &'static Workload, seed: u64, seconds: u64, traced: bool) -> Measurement {
    let invoked = Instant::now();
    let mut meter = SpeedMeter::new();
    let mut problems = Vec::new();
    let mut repetitions: Vec<Repetition> = Vec::new();
    loop {
        repetitions.push(repetition(workload, seed, &mut meter, &mut problems));
        let measured: Duration = repetitions.iter().map(|rep| rep.window.raw).sum();
        let enough = if traced {
            repetitions.len() >= 2
        } else {
            repetitions.len() >= MIN_REPETITIONS
                && (measured >= Duration::from_secs(seconds)
                    || invoked.elapsed() > INVOCATION_BUDGET)
        };
        if enough {
            break;
        }
    }

    // Determinism: one seed, one set of counts — the reference and the
    // traced run under `--trace`, every repetition otherwise.
    let first = &repetitions[0];
    for (index, rep) in repetitions.iter().enumerate().skip(1) {
        if rep.counts != first.counts {
            problems.push(format!(
                "repetition {index} disagrees with repetition 0 on the counts"
            ));
        }
        if rep.window_allocations.abs_diff(first.window_allocations)
            > allocation_slack(first.window_allocations)
        {
            problems.push(format!(
                "repetition {index} made {} allocations in the window, repetition 0 made {}",
                rep.window_allocations, first.window_allocations
            ));
        }
    }

    let last = repetitions.last().expect("at least one repetition ran");
    let tally = &last.counts.tally;
    let failed_share = tally.failed as f64 / tally.expected.max(1) as f64;
    if failed_share > workload.failed_share_ceiling {
        problems.push(format!(
            "{} of {} expected deliveries never happened (ceiling {})",
            tally.failed, tally.expected, workload.failed_share_ceiling
        ));
    }

    let of = |pick: fn(&Repetition) -> f64| -> Vec<f64> { repetitions.iter().map(pick).collect() };
    let deliveries = tally.deliveries.max(1) as f64;
    let mut end_to_end = Values::of(&END_TO_END);
    end_to_end.set("setup_s", median(&of(|rep| rep.setup.normalised_s())));
    end_to_end.set("wall_s", median(&of(|rep| rep.window.normalised_s())));
    end_to_end.set(
        "peak_heap_mb",
        median(&of(|rep| rep.peak_heap_bytes as f64)) / (1024.0 * 1024.0),
    );
    end_to_end.set(
        "allocs_per_delivery",
        median(&of(|rep| rep.window_allocations as f64)) / deliveries,
    );
    end_to_end.set(
        "wire_bytes_per_delivery",
        last.counts.wire.total() as f64 / deliveries,
    );
    end_to_end.set(
        "sender_tx_per_msg",
        last.counts.sender_tx as f64 / last.counts.sender_messages.max(1) as f64,
    );
    end_to_end.set(
        "on_time_share",
        tally.on_time as f64 / tally.timed.max(1) as f64,
    );
    end_to_end.set("delivered_share", 1.0 - failed_share);

    let mut per_layer = Values::of(&PER_LAYER);
    let ticks = report_metrics(last, &mut per_layer);
    if traced {
        let reference = repetitions[0].window.normalised_s();
        per_layer.set(
            "testbed.trace_overhead_share",
            (last.window.normalised_s() - reference) / reference,
        );
    }

    let measured_run = &last.runs[workload.sender_scenario.unwrap_or(0)];
    let packets = |pick: fn(&morpheus_testbed::NodeReport) -> u64| -> u64 {
        last.runs
            .iter()
            .flat_map(|run| &run.report.nodes)
            .map(pick)
            .sum()
    };
    Measurement {
        workload,
        seed,
        repetitions: repetitions.len(),
        nodes: measured_run.report.devices,
        messages: measured_run.schedule.seqs_per_sender(),
        attempted: tally.expected,
        failed: tally.failed,
        end_to_end,
        per_layer,
        ticks,
        packets: PacketCounts {
            data: packets(|node| node.sent_data + node.sent_repair),
            control: packets(|node| node.sent_control),
            context: packets(|node| node.sent_context),
        },
        trace: traced.then(|| spans(workload, &repetitions)),
        problems,
        clock: meter,
    }
}

/// Samples behind the tick percentiles, and the upper percentile used.
pub struct TickSummary {
    pub samples: usize,
    pub upper_quantile: f64,
}

/// The per-layer metrics that come from the run reports and the binding's
/// stamps (everything but the probes).
fn report_metrics(rep: &Repetition, out: &mut Values) -> TickSummary {
    let runs = &rep.runs;
    let sum = |pick: &dyn Fn(&RunReport) -> u64| -> f64 {
        runs.iter().map(|run| pick(&run.report)).sum::<u64>() as f64
    };
    let seconds = |pick: &dyn Fn(&ScenarioRun) -> Duration| -> f64 {
        runs.iter().map(pick).sum::<Duration>().as_secs_f64()
    };
    let tally = &rep.counts.tally;
    let deliveries = tally.deliveries.max(1) as f64;

    out.set("testbed.events", rep.counts.events as f64);
    out.set(
        "testbed.ns_per_event",
        rep.window.raw.as_nanos() as f64 / rep.counts.events.max(1) as f64,
    );
    let first_send = |run: &ScenarioRun| run.stamps.first_send.unwrap_or(run.returned);
    out.set(
        "testbed.boot_s",
        seconds(&|run| first_send(run) - run.started),
    );
    out.set(
        "testbed.steady_s",
        seconds(&|run| run.stamps.last_send.saturating_sub(first_send(run))),
    );
    out.set(
        "testbed.drain_s",
        seconds(&|run| run.returned.saturating_sub(run.stamps.last_send)),
    );
    out.set("testbed.setup_raw_s", rep.setup.raw.as_secs_f64());
    out.set("testbed.wall_raw_s", rep.window.raw.as_secs_f64());
    out.set("testbed.machine_slowdown", rep.window.slowdown());
    // Open loop in simulated time: a send fires at its scheduled instant
    // whatever the backlog, so the generator cannot run late.
    out.set("testbed.generator_late_ms", 0.0);

    let mut tick_ms: Vec<f64> = runs
        .iter()
        .flat_map(|run| run.stamps.tick_starts.windows(2))
        .map(|pair| (pair[1] - pair[0]).as_secs_f64() * 1e3)
        .collect();
    tick_ms.sort_by(f64::total_cmp);
    // The highest percentile with at least ten samples beyond it, 99 at most.
    let upper_quantile = if tick_ms.len() >= 20 {
        (1.0 - 10.0 / tick_ms.len() as f64).min(0.99)
    } else {
        0.5
    };
    out.set("testbed.tick_ms_p50", quantile(&tick_ms, 0.5));
    out.set("testbed.tick_ms_p99", quantile(&tick_ms, upper_quantile));

    out.set("netsim.packets_sent", rep.counts.packets_sent as f64);
    out.set(
        "netsim.max_queue_depth",
        runs.iter()
            .map(|run| run.report.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("netsim.shed_packets", sum(&|report| report.shed_packets));
    out.set(
        "netsim.dropped_packets",
        sum(&|report| {
            report.messages_lost
                + report.control_lost
                + report.messages_lost_to_crashed
                + report.data_dropped
                + report.partition_dropped
                + report.fault_dropped
        }),
    );

    let node_seconds: f64 = runs
        .iter()
        .map(|run| run.report.devices as f64 * run.report.duration_ms as f64 / 1e3)
        .sum();
    let wire = rep.counts.wire;
    out.set(
        "groupcomm.data_bytes_per_node_s",
        wire.data as f64 / node_seconds,
    );
    out.set(
        "groupcomm.control_bytes_per_node_s",
        wire.control as f64 / node_seconds,
    );
    out.set(
        "groupcomm.repair_bytes_per_node_s",
        wire.repair as f64 / node_seconds,
    );
    out.set(
        "cocaditem.context_bytes_per_node_s",
        wire.context as f64 / node_seconds,
    );

    let gossip = |pick: &dyn Fn(&morpheus_testbed::report::GossipReport) -> u64| -> f64 {
        runs.iter()
            .map(|run| pick(&run.report.gossip_totals()))
            .sum::<u64>() as f64
    };
    out.set(
        "groupcomm.gossip.dup_ratio",
        gossip(&|g| g.duplicates) / deliveries,
    );
    out.set(
        "groupcomm.gossip.repaired_share",
        gossip(&|g| g.repaired_deliveries) / deliveries,
    );
    out.set("groupcomm.gossip.repair_pulls", gossip(&|g| g.repair_pulls));
    out.set(
        "groupcomm.gossip.deferred_pushes",
        gossip(&|g| g.deferred_pushes),
    );
    out.set("groupcomm.gossip.outbox_shed", gossip(&|g| g.outbox_shed));
    out.set(
        "groupcomm.gossip.floor_escalations",
        gossip(&|g| g.floor_escalations),
    );
    out.set(
        "groupcomm.gossip.catchups",
        sum(&|report| report.total_catchups()),
    );

    out.set(
        "groupcomm.vsync.view_changes",
        sum(&|report| report.nodes.iter().map(|node| node.view_changes).sum()),
    );
    let rejoins = || runs.iter().flat_map(|run| run.report.rejoins());
    out.set(
        "groupcomm.recovery.rejoin_ms",
        rejoins()
            .map(|(_, rejoin)| rejoin.elapsed_ms)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "groupcomm.recovery.rejoin_bytes",
        rejoins().map(|(_, rejoin)| rejoin.bytes).sum::<u64>() as f64,
    );
    out.set(
        "groupcomm.round.retransmits",
        sum(&|report| report.total_retransmits()),
    );
    let rounds = || runs.iter().flat_map(|run| run.report.completed_rounds());
    out.set(
        "core.round_ms_max",
        rounds().map(|round| round.latency_ms).max().unwrap_or(0) as f64,
    );
    out.set(
        "core.reconfigurations",
        sum(&|report| report.total_reconfigurations()),
    );
    out.set(
        "cocaditem.converged_ms",
        runs.iter()
            .filter_map(|run| run.report.context_convergence_ms())
            .max()
            .unwrap_or(0) as f64,
    );

    out.set("chat.deliveries", tally.deliveries as f64);
    out.set("chat.duplicates", tally.duplicates as f64);
    out.set("chat.late_intervals_p99", tally.late_quantile(0.99) as f64);
    out.set(
        "chat.failed_share",
        tally.failed as f64 / tally.expected.max(1) as f64,
    );

    TickSummary {
        samples: tick_ms.len(),
        upper_quantile,
    }
}

/// Builds the span tree of a traced invocation from the readings every
/// repetition takes anyway: root `workload` → per repetition `gen_inputs`,
/// `pilot`, and `reference` or `measured` → per scenario run `boot`,
/// `steady` (a child per send interval, or per group of them), `drain`,
/// `report`.
fn spans(workload: &Workload, repetitions: &[Repetition]) -> Trace {
    let capacity = repetitions
        .iter()
        .map(|rep| 8 + rep.runs.len() * (8 + MAX_TICK_SPANS))
        .sum();
    let mut trace = Trace::new(workload.name, capacity);
    let root = trace.open(None, "workload", repetitions[0].marks[0]);
    for (index, rep) in repetitions.iter().enumerate() {
        let [start, inputs_built, pilot_done, end] = rep.marks;
        trace.record(Some(root), "gen_inputs", start, inputs_built);
        trace.record(Some(root), "pilot", inputs_built, pilot_done);
        let name = if index + 1 == repetitions.len() {
            "measured"
        } else {
            "reference"
        };
        let run_span = trace.open(Some(root), name, pilot_done);
        for run in &rep.runs {
            scenario_spans(&mut trace, run_span, run);
        }
        trace.close(run_span, end);
    }
    trace.close(
        root,
        repetitions
            .last()
            .map_or(Duration::ZERO, |rep| rep.marks[3]),
    );
    trace
}

fn scenario_spans(trace: &mut Trace, parent: SpanId, run: &ScenarioRun) {
    let first_send = run.stamps.first_send.unwrap_or(run.returned);
    let last_send = run.stamps.last_send.max(first_send);
    trace.record(Some(parent), "boot", run.started, first_send);
    let steady = trace.record(Some(parent), "steady", first_send, last_send);
    let starts = &run.stamps.tick_starts;
    let group = starts.len().div_ceil(MAX_TICK_SPANS).max(1);
    for (index, chunk) in starts.chunks(group).enumerate() {
        let from = index * group;
        let until = starts.get(from + group).copied().unwrap_or(last_send);
        let name = if group == 1 {
            format!("tick {from}")
        } else {
            format!("ticks {from}..{}", from + chunk.len())
        };
        trace.record(Some(steady), name, chunk[0], until);
    }
    trace.record(Some(parent), "drain", last_send, run.returned);
    trace.record(Some(parent), "report", run.returned, run.aggregated);
}
