//! End-to-end: the EPIC cyber range generated from SG-ML files and driven
//! through the paper's workflows — monitoring, operator control, protection,
//! and load profiles.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange};
use sg_cyber_range::kvstore::Value;
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;

fn epic_range() -> CyberRange {
    CyberRange::instantiate(
        CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile"),
    )
    .expect("EPIC bundle must compile")
}

#[test]
fn generates_with_expected_inventory() {
    let range = epic_range();
    // 8 IEDs + CPLC + SCADA hosts; 5 segment switches + WAN backbone.
    assert_eq!(range.plan().hosts.len(), 10);
    assert_eq!(range.plan().switches.len(), 6);
    assert!(range.plan().switches.iter().any(|s| s.is_wan));
    assert_eq!(range.ieds.len(), 8);
    assert_eq!(range.plcs.len(), 1);
    assert!(range.scada.is_some());
    // Physical model: 4 segments' worth of elements.
    assert_eq!(range.power.bus.len(), 7);
    assert_eq!(range.power.line.len(), 3);
    assert_eq!(range.power.switch.len(), 3);
    assert_eq!(range.power.gen.len(), 2);
    assert_eq!(range.power.sgen.len(), 2);
    assert_eq!(range.power.load.len(), 3);
    // No error-level diagnostics.
    assert!(
        !range
            .diagnostics()
            .iter()
            .any(|d| d.severity == sg_cyber_range::scl::Severity::Error),
        "{:?}",
        range.diagnostics()
    );
}

#[test]
fn initial_power_flow_is_healthy() {
    let range = epic_range();
    for (i, bus) in range.power.bus.iter().enumerate() {
        let r = &range.last_result.bus[i];
        assert!(r.energized, "bus {} must be energized", bus.name);
        assert!(
            (0.9..=1.1).contains(&r.vm_pu),
            "bus {} voltage {} out of band",
            bus.name,
            r.vm_pu
        );
    }
    // Generation covers the load.
    let supplied: f64 = range.last_result.gen.iter().map(|g| g.p_mw).sum();
    assert!(supplied > 0.0);
}

#[test]
fn measurements_flow_to_ied_models_and_scada() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(3));

    // IED data models carry live measurements from the power flow.
    let gied1 = &range.ieds["GIED1"];
    let p = gied1
        .model
        .read("GIED1LD0/MMXU1$MX$TotW$mag$f")
        .and_then(|v| v.as_f64())
        .expect("GIED1 measures LGen power");
    assert!(p.abs() > 1e-6, "LGen power must be nonzero, got {p}");

    // SCADA tags populated over both protocols.
    let scada = range.scada.as_ref().unwrap();
    let micro = scada.tag_value("MicroFeeder_MW").expect("MMS-polled tag");
    assert!(micro.abs() > 1e-6);
    let volt = scada.tag_value("MicroVolt_pu").expect("MMS-polled tag");
    assert!((0.9..1.1).contains(&volt), "micro-grid voltage {volt}");
    // The CPLC chain: IED → MMS → PLC program → Modbus → SCADA.
    let via_plc = scada.tag_value("GenFeeder_kW").expect("PLC-mediated tag");
    assert!(via_plc > 0.0, "PLC-mediated feeder power, got {via_plc}");
    assert!(
        scada.tag_value("CB_GEN_fb").unwrap_or(0.0) > 0.0,
        "breaker feedback closed"
    );

    // PLC is scanning without faults.
    let plc = range.plcs["CPLC"].lock();
    assert!(plc.scans > 20);
    assert_eq!(plc.fault, None);
    assert!(plc.reads_ok > 0);
}

#[test]
fn set_point_commands_move_loads_and_generators_at_the_next_step() {
    let mut range = epic_range();
    let load1 = range.power.load_by_name("EPIC/Load1").unwrap().index();
    let load2 = range.power.load_by_name("EPIC/Load2").unwrap().index();
    // Gen2 is a voltage-controlled (PV) generator, Battery1 a static one.
    let gen2 = range.power.gen_by_name("EPIC/Gen2").unwrap().index();
    let battery = range.power.sgen_by_name("EPIC/Battery1").unwrap().index();
    let load2_before = range.power.load[load2].p_mw;
    let battery_before = range.power.sgen[battery].p_mw;

    range
        .store
        .set("cmd/EPIC/load/Load1/p_mw", Value::Float(0.012));
    range
        .store
        .set("cmd/EPIC/gen/Gen2/p_mw", Value::Float(0.007));
    // The `gen` class addresses static generators too; an integer is a
    // valid set-point.
    range.store.set("cmd/EPIC/gen/Battery1/p_mw", Value::Int(0));
    // A set-point of the wrong type is ignored.
    range
        .store
        .set("cmd/EPIC/load/Load2/p_mw", Value::Bool(true));
    // Nothing moves before the power plane's next step.
    assert!(range.power.load[load1].p_mw != 0.012);
    assert!(range.power.gen[gen2].p_mw != 0.007);
    assert_eq!(range.power.sgen[battery].p_mw, battery_before);

    range.step();
    assert_eq!(range.power.load[load1].p_mw, 0.012);
    assert_eq!(range.power.gen[gen2].p_mw, 0.007);
    assert_eq!(range.power.sgen[battery].p_mw, 0.0);
    assert_ne!(battery_before, 0.0);
    assert_eq!(range.power.load[load2].p_mw, load2_before);
    assert_eq!(
        range.store.get_float("meas/EPIC/src/Battery1/p_mw"),
        Some(0.0)
    );
    assert_eq!(range.solve_errors_total(), 0);

    // A command applies once: overriding the element afterwards sticks
    // until the next command is written.
    range.power.gen[gen2].p_mw = 0.009;
    range.step();
    assert_eq!(range.power.gen[gen2].p_mw, 0.009);
    range
        .store
        .set("cmd/EPIC/gen/Gen2/p_mw", Value::Float(0.006));
    range.step();
    assert_eq!(range.power.gen[gen2].p_mw, 0.006);
}

/// The process-store key space of EPIC: every key the range writes while
/// it runs, pinned so a change to the key grammar or to the published
/// elements shows up here first.
#[test]
fn process_store_key_space_is_pinned() {
    let mut range = epic_range();
    for _ in 0..20 {
        range.step();
    }
    let keys: Vec<String> = range.store.dump().into_iter().map(|(key, _)| key).collect();
    let expected = [
        "meas/EPIC/branch/LGen/i_ka",
        "meas/EPIC/branch/LGen/loading",
        "meas/EPIC/branch/LGen/p_mw",
        "meas/EPIC/branch/LGen/q_mvar",
        "meas/EPIC/branch/LHome/i_ka",
        "meas/EPIC/branch/LHome/loading",
        "meas/EPIC/branch/LHome/p_mw",
        "meas/EPIC/branch/LHome/q_mvar",
        "meas/EPIC/branch/LMicro/i_ka",
        "meas/EPIC/branch/LMicro/loading",
        "meas/EPIC/branch/LMicro/p_mw",
        "meas/EPIC/branch/LMicro/q_mvar",
        "meas/EPIC/bus/LV.GenBay.CN_GEN/va_deg",
        "meas/EPIC/bus/LV.GenBay.CN_GEN/vm_pu",
        "meas/EPIC/bus/LV.GenBay.CN_GEN_T/va_deg",
        "meas/EPIC/bus/LV.GenBay.CN_GEN_T/vm_pu",
        "meas/EPIC/bus/LV.HomeBay.CN_HOME/va_deg",
        "meas/EPIC/bus/LV.HomeBay.CN_HOME/vm_pu",
        "meas/EPIC/bus/LV.HomeBay.CN_HOME_T/va_deg",
        "meas/EPIC/bus/LV.HomeBay.CN_HOME_T/vm_pu",
        "meas/EPIC/bus/LV.MicroBay.CN_MICRO/va_deg",
        "meas/EPIC/bus/LV.MicroBay.CN_MICRO/vm_pu",
        "meas/EPIC/bus/LV.MicroBay.CN_MICRO_T/va_deg",
        "meas/EPIC/bus/LV.MicroBay.CN_MICRO_T/vm_pu",
        "meas/EPIC/bus/LV.TransBay.CN_TRANS/va_deg",
        "meas/EPIC/bus/LV.TransBay.CN_TRANS/vm_pu",
        "meas/EPIC/cb/CB_GEN/closed",
        "meas/EPIC/cb/CB_HOME/closed",
        "meas/EPIC/cb/CB_MICRO/closed",
        "meas/EPIC/load/Load1/p_mw",
        "meas/EPIC/load/Load2/p_mw",
        "meas/EPIC/load/MicroLoad/p_mw",
        "meas/EPIC/src/Battery1/p_mw",
        "meas/EPIC/src/Gen1/p_mw",
        "meas/EPIC/src/Gen2/p_mw",
        "meas/EPIC/src/PV1/p_mw",
        "sim/step",
    ];
    assert_eq!(keys, expected);
}

#[test]
fn operator_command_travels_scada_plc_ied_power() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(2));
    let before = range.last_result.line[0].p_from_mw.abs();
    assert!(before > 1e-6, "generation feeder initially carries power");

    // Operator opens CB_GEN from the HMI: coil → CPLC program → MMS Oper →
    // GIED1 → process store → power flow.
    range.scada.as_ref().unwrap().operate("CB_GEN_cmd", true); // close first (no-op, already closed)
    range.run_for(SimDuration::from_secs(1));
    range.scada.as_ref().unwrap().operate("CB_GEN_cmd", false);
    range.run_for(SimDuration::from_secs(2));

    // The generation segment is disconnected: LGen is out of service.
    assert!(
        !range.last_result.line[0].in_service,
        "generation feeder de-energized after operator open"
    );
    let gied1_events =
        range.ieds["GIED1"].events_of(sg_cyber_range::ied::IedEventKind::ControlExecuted);
    assert!(
        !gied1_events.is_empty(),
        "GIED1 executed the relayed command"
    );
    // The physical switch actually opened.
    let cb = range.power.switch_by_name("EPIC/CB_GEN").unwrap();
    assert!(!range.power.switch[cb.index()].closed);
}

#[test]
fn ptoc_trips_on_simulated_overload() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(1));
    assert_eq!(range.ieds["TIED2"].trip_count(), 0);

    // Force an overload on the smart-home feeder by inflating its loads.
    let load1 = range.power.load_by_name("EPIC/Load1").unwrap();
    range.power.load[load1.index()].p_mw = 0.2; // ~13x nominal
    range.run_for(SimDuration::from_secs(3));

    assert!(
        range.ieds["TIED2"].trip_count() >= 1,
        "TIED2 PTOC must trip CB_HOME; events: {:?}",
        range.ieds["TIED2"].events()
    );
    // The trip de-energized the smart-home bus.
    let cb = range.power.switch_by_name("EPIC/CB_HOME").unwrap();
    assert!(!range.power.switch[cb.index()].closed);
    let home_bus = range.power.bus_by_name("EPIC/LV/HomeBay/CN_HOME").unwrap();
    assert!(!range.last_result.bus[home_bus.index()].energized);
}

#[test]
fn load_profile_modulates_demand() {
    let mut range = epic_range();
    // The EPIC profile scales Load1 over a compressed "day" (8 points x 60 s).
    range.run_for(SimDuration::from_secs(2));
    let early = range.store.get_float("meas/EPIC/load/Load1/p_mw").unwrap();
    // Jump ahead by injecting the profile value directly: run to a later
    // profile segment (61 s in sim time).
    range.run_for(SimDuration::from_secs(60));
    let later = range.store.get_float("meas/EPIC/load/Load1/p_mw").unwrap();
    assert_ne!(early, later, "profile must change the served load");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut range = epic_range();
        range.run_for(SimDuration::from_secs(3));
        let mut tags: Vec<(String, String)> = range
            .scada
            .as_ref()
            .unwrap()
            .tag_names()
            .into_iter()
            .map(|name| {
                let v = range.scada.as_ref().unwrap().tag_value(&name);
                (name, format!("{v:?}"))
            })
            .collect();
        tags.sort();
        (tags, range.store.dump().len())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two runs of the same model must be identical");
}

#[test]
fn missing_host_is_reported() {
    let mut bundle = epic_bundle();
    bundle.scada_host = Some("NO_SUCH_HOST".to_string());
    match CompiledModel::compile(&bundle) {
        Err(sg_cyber_range::core::RangeError::UnknownHost { host, .. }) => {
            assert_eq!(host, "NO_SUCH_HOST");
        }
        other => panic!("expected UnknownHost, got {other:?}", other = other.err()),
    }
}

#[test]
fn malformed_model_is_reported() {
    let mut bundle = epic_bundle();
    bundle.ssds[0] = "<SCL><Header id=\"broken\"/>".to_string(); // truncated XML
    assert!(matches!(
        CompiledModel::compile(&bundle),
        Err(sg_cyber_range::core::RangeError::Model { what: "SSD", .. })
    ));
}

#[test]
fn protection_trip_reports_spontaneously_to_mms_clients() {
    // A trip must surface at the HMI immediately via an MMS
    // InformationReport, not only at the next interrogation cycle.
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(2));

    // TIED1 is a SCADA MMS data source; overload its feeder (LMicro).
    let load = range.power.load_by_name("EPIC/MicroLoad").unwrap();
    range.power.load[load.index()].p_mw = 0.2;
    range.run_for(SimDuration::from_secs(3));

    assert!(range.ieds["TIED1"].trip_count() >= 1, "TIED1 PTOC tripped");
    let events = range.scada.as_ref().unwrap().events();
    assert!(
        events
            .iter()
            .any(|e| e.message.contains("REPORT") && e.message.contains("PTOC1")),
        "HMI event log carries the spontaneous trip report: {events:?}"
    );
}
