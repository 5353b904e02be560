//! End-to-end causal tracing: a forced protection trip on the EPIC range
//! produces one trace whose spans chain from the co-simulation step through
//! the tripping IED's GOOSE publication, across emulated network links, into
//! the PLC's scan/control logic and the SCADA alarm — and the exported
//! Chrome trace / span log files are structurally valid.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, RangeBuilder};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;
use sg_cyber_range::obs::{SpanRecord, Telemetry};

fn traced_epic_range() -> (CyberRange, Telemetry) {
    let bundle = epic_bundle();
    let telemetry = Telemetry::with_tracing();
    let range = RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
        .telemetry(telemetry.clone())
        .build()
        .expect("EPIC bundle must compile");
    (range, telemetry)
}

/// Overloads the generation feeder (LGen) past GIED1's PTOC pickup while
/// keeping both downstream feeders below their own pickups, so GIED1 — the
/// GOOSE publisher CPLC subscribes to — is the relay that operates.
fn force_gen_feeder_overload(range: &mut CyberRange) {
    let micro = range.power.load_by_name("EPIC/MicroLoad").unwrap();
    range.power.load[micro.index()].p_mw = 0.062;
    let load1 = range.power.load_by_name("EPIC/Load1").unwrap();
    range.power.load[load1.index()].p_mw = 0.085;
}

#[test]
fn protection_trip_traces_across_all_planes() {
    let (mut range, telemetry) = traced_epic_range();
    range.run_for(SimDuration::from_secs(1));
    assert_eq!(range.ieds["GIED1"].trip_count(), 0);

    force_gen_feeder_overload(&mut range);
    range.run_for(SimDuration::from_secs(4));
    assert!(
        range.ieds["GIED1"].trip_count() >= 1,
        "GIED1 PTOC must trip CB_GEN; events: {:?}",
        range.ieds["GIED1"].events()
    );

    let tracer = telemetry.tracer();
    let spans = tracer.spans();
    assert!(telemetry.is_tracing());
    assert_eq!(telemetry.spans_dropped(), 0, "buffer must not evict");

    // Downstream path 1: the PLC sheds the smart-home feeder over MMS.
    let control = spans
        .iter()
        .find(|s| {
            s.name == "plc.control" && s.attr("item").is_some_and(|i| i.contains("SIED2LD0/CSWI1"))
        })
        .expect("CPLC issues the load-shedding control to SIED2");
    let control_pub = assert_chains_to_goose_pub(&tracer, control, "plc.control");

    // Downstream path 2: the SCADA alarm the operator sees.
    let alarm = spans
        .iter()
        .find(|s| {
            s.name == "scada.alarm"
                && s.attr("point") == Some("GenProt_trip")
                && s.attr("state") == Some("raised")
        })
        .expect("SCADA raises the GenProt_trip alarm");
    let alarm_pub = assert_chains_to_goose_pub(&tracer, alarm, "scada.alarm");

    // Both effects descend from the same causal tree, rooted in the same
    // physical disturbance.
    assert_eq!(control_pub.trace_id, alarm_pub.trace_id);
    let trace = tracer.trace_of(control_pub.trace_id);
    assert!(trace.iter().any(|s| s.span_id == alarm.span_id));
    assert!(trace.iter().any(|s| s.span_id == control.span_id));
    assert_eq!(trace[0].name, "range.step", "trace roots at the step span");
}

/// Asserts `leaf`'s ancestry passes through a trip-caused GIED1 GOOSE
/// publication with at least one emulated link traversal in between (the
/// frame really crossed the network), and roots at a co-simulation step.
/// Returns the publication span.
fn assert_chains_to_goose_pub(
    tracer: &sg_cyber_range::obs::Tracer,
    leaf: &SpanRecord,
    what: &str,
) -> SpanRecord {
    let chain = tracer.ancestry(leaf.span_id);
    let names: Vec<&str> = chain.iter().map(|s| s.name).collect();
    let pub_index = chain
        .iter()
        .position(|s| s.name == "ied.goose_pub" && s.attr("ied") == Some("GIED1"))
        .unwrap_or_else(|| panic!("{what} must descend from GIED1's GOOSE publication: {names:?}"));
    // The publication itself was caused by the protection trip, which chains
    // back to the solve that exposed the overload.
    assert_eq!(
        &names[pub_index..],
        &[
            "ied.goose_pub",
            "ied.trip",
            "ied.sample",
            "power.solve",
            "range.step"
        ],
        "{what}: the GOOSE publication chains to the physical cause"
    );
    let hops = chain[..pub_index]
        .iter()
        .filter(|s| s.name == "net.link")
        .count();
    assert!(
        hops >= 1,
        "{what} must be separated from the GOOSE publication by ≥1 link traversal: {names:?}"
    );
    assert!(
        chain.iter().all(|s| s.trace_id == chain[0].trace_id),
        "one causal tree, one trace_id"
    );
    chain[pub_index].clone()
}

#[test]
fn tracing_is_behaviorally_invisible_and_deterministic() {
    // The zero-overhead contract extended to tracing: telemetry off,
    // telemetry on, and telemetry+tracing on must all produce byte-identical
    // simulation results — under the forced-trip scenario, so the traced
    // code paths (trip, GOOSE, PLC control, alarms) actually execute.
    let run = |telemetry: Telemetry| {
        let bundle = epic_bundle();
        let mut range =
            RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
                .telemetry(telemetry)
                .build()
                .expect("EPIC bundle must compile");
        range.run_for(SimDuration::from_secs(1));
        force_gen_feeder_overload(&mut range);
        range.run_for(SimDuration::from_secs(3));
        let scada = range.scada.as_ref().unwrap();
        let mut tags: Vec<(String, String)> = scada
            .tag_names()
            .into_iter()
            .map(|name| {
                let value = scada.tag_value(&name);
                (name, format!("{value:?}"))
            })
            .collect();
        tags.sort();
        (tags, range.steps_total(), range.store.dump().len())
    };
    let dark = run(Telemetry::disabled());
    let journal_only = run(Telemetry::new());
    let traced = run(Telemetry::with_tracing());
    assert_eq!(dark, journal_only, "telemetry must not perturb simulation");
    assert_eq!(dark, traced, "tracing must not perturb simulation");

    // Determinism: IDs come from monotonic counters driven by a
    // deterministic event loop, so two traced runs agree span-for-span.
    let spans_of = || {
        let bundle = epic_bundle();
        let telemetry = Telemetry::with_tracing();
        let mut range =
            RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
                .telemetry(telemetry.clone())
                .build()
                .expect("EPIC bundle must compile");
        range.run_for(SimDuration::from_secs(1));
        force_gen_feeder_overload(&mut range);
        range.run_for(SimDuration::from_secs(3));
        telemetry.spans()
    };
    assert_eq!(spans_of(), spans_of(), "same run, same IDs, same spans");
}

#[test]
fn journal_only_telemetry_records_no_spans() {
    // `Telemetry::new()` keeps the journal/metrics but leaves the tracer
    // disabled: no span IDs are assigned and nothing is buffered.
    let bundle = epic_bundle();
    let telemetry = Telemetry::new();
    let mut range =
        RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
            .telemetry(telemetry.clone())
            .build()
            .expect("EPIC bundle must compile");
    range.run_for(SimDuration::from_secs(2));
    assert!(!telemetry.is_tracing());
    assert!(!telemetry.tracer().is_enabled());
    assert!(telemetry.spans().is_empty(), "no spans without tracing");
    assert_eq!(telemetry.spans_dropped(), 0);
    assert!(
        !telemetry.events().is_empty(),
        "the journal still records events"
    );
}
