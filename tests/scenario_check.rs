//! One scenario checker, two consumers: every scenario that does not fit the
//! EPIC model must be reported by `sgml_processor lint` (the `SG5xxx` pass)
//! *and* refused by the exercise engine, and every shipped scenario must be
//! clean under both.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, SgmlBundle};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::powerflow::ScenarioAction;
use sg_cyber_range::scenario::{
    check, run_exercise, Pos, Scenario, Stage, StageAction, StageStart, Targets,
};
use sgcr_lint::source::LoadedBundle;
use sgcr_lint::{lint_bundle, LintReport};
use sgcr_scl::codes::{
    SCENARIO_BAD_ATTACKER_HOST as BAD_HOST, SCENARIO_BAD_DEADLINE as DEADLINE,
    SCENARIO_BAD_FAULT_PROBABILITY as PROBABILITY, SCENARIO_DUPLICATE_ID as DUPLICATE,
    SCENARIO_UNDEFINED_STAGE as UNDEFINED, SCENARIO_UNKNOWN_FAULT_IED as FAULT_IED,
    SCENARIO_UNKNOWN_FAULT_TARGET as FAULT_TARGET, SCENARIO_UNKNOWN_TARGET as UNKNOWN,
};
use std::time::{Duration, Instant};

/// `(what the row exercises, scenario body, expected SG5xxx codes sorted)`.
/// Each body line becomes one line of the scenario file, after the
/// `<Scenario>` line, so every finding must point past line 1.
const MISFITS: &[(&str, &str, &[&str])] = &[
    (
        "duplicate stage id",
        r#"<Stage id="a" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
<Stage id="a" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>"#,
        &[DUPLICATE],
    ),
    (
        "undefined dependency",
        r#"<Stage id="a" after="ghost" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>"#,
        &[UNDEFINED],
    ),
    (
        "two-stage dependency cycle",
        r#"<Stage id="a" after="b" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
<Stage id="b" after="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/>"#,
        &[UNDEFINED],
    ),
    (
        "three-stage cycle with a stage waiting on it",
        r#"<Stage id="a" after="c" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
<Stage id="b" after="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/>
<Stage id="c" after="b" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
<Stage id="d" after="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/>"#,
        &[UNDEFINED],
    ),
    (
        "unknown power target",
        r#"<Stage id="a" kind="power" action="openSwitch" target="EPIC/CB_GHOST"/>"#,
        &[UNKNOWN],
    ),
    (
        "cyber stage on an undeclared host",
        r#"<Stage id="a" kind="fci" host="ghost" victim="GIED1" item="x"/>"#,
        &[UNKNOWN],
    ),
    (
        "unknown objective switch",
        r#"<Objective id="o" kind="breakerOpen" target="EPIC/CB_GHOST" withinMs="10"/>"#,
        &[UNKNOWN],
    ),
    (
        "non-positive deadline",
        r#"<Objective id="o" kind="breakerOpen" target="EPIC/CB_GEN" withinMs="0"/>"#,
        &[DEADLINE],
    ),
    (
        "objective anchored to an undefined stage",
        r#"<Objective id="o" kind="breakerOpen" target="EPIC/CB_GEN" after="ghost" withinMs="10"/>"#,
        &[UNDEFINED],
    ),
    (
        "loss probability out of range",
        r#"<Stage id="a" kind="linkFault" a="SCADA" b="ControlBus" loss="1.5"/>"#,
        &[PROBABILITY],
    ),
    (
        "unknown link-fault endpoint",
        r#"<Stage id="a" kind="linkFault" a="SCADA" b="GhostBus" loss="0.5"/>"#,
        &[FAULT_TARGET],
    ),
    (
        "crash of an unknown host",
        r#"<Stage id="a" kind="crash" host="GhostIED"/>"#,
        &[FAULT_TARGET],
    ),
    (
        "crash of a switch",
        r#"<Stage id="a" kind="crash" host="GenBus"/>"#,
        &[FAULT_TARGET],
    ),
    (
        "sensor fault on an unknown IED",
        r#"<Stage id="a" kind="sensor" ied="GhostIED" key="k" mode="stuck"/>"#,
        &[FAULT_IED],
    ),
    (
        "every kind of unknown target",
        r#"<Host name="box" ip="10.0.1.66" switch="NoSuchBus"/>
<Stage id="s1" kind="power" action="openSwitch" target="EPIC/CB_GHOST"/>
<Stage id="s2" kind="fci" host="box" victim="GHOST1" item="x"/>
<Stage id="s3" kind="link" a="SCADA" b="GhostBus" action="down"/>
<Objective id="o1" kind="breakerOpen" target="EPIC/CB_GHOST" withinMs="10"/>
<Objective id="o2" kind="iedTrip" ied="GHOSTIED" withinMs="10"/>
<Objective id="o3" kind="scadaAlarm" point="Ghost_pt" withinMs="10"/>
<Objective id="o4" kind="voltageBand" bus="EPIC/LV/GhostBay/CN_X" min="0.9" max="1.1" toMs="100"/>
<Objective id="o5" kind="scadaAlarm" point="stale:MicroVolt_pu" withinMs="10"/>
<Objective id="o6" kind="scadaAlarm" point="stale:Ghost_pt" withinMs="10"/>
<Objective id="o7" kind="tagAbove" point="stale:MicroVolt_pu" value="1.0" withinMs="10"/>"#,
        // o5 is known: the stale sweep alarms on a configured point. The
        // `stale:` namespace applies to scadaAlarm only, so o7 is unknown.
        &[UNKNOWN; 10],
    ),
    (
        "bad fault stages next to good ones",
        r#"<Stage id="f1" kind="linkFault" a="SCADA" b="GhostBus" loss="0.5"/>
<Stage id="f2" kind="linkFault" a="SCADA" b="ControlBus" loss="1.5" corrupt="-0.1"/>
<Stage id="f3" kind="crash" host="GhostIED"/>
<Stage id="f4" kind="sensor" ied="GhostIED" key="meas/x" mode="stuck"/>
<Stage id="ok1" kind="linkFault" a="SCADA" b="ControlBus" loss="0.25" jitterMs="3"/>
<Stage id="ok2" kind="crash" host="MIED1" restartAfterMs="500"/>
<Stage id="ok3" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_ka" mode="drift" perSec="0.1"/>"#,
        &[
            FAULT_TARGET,
            FAULT_TARGET,
            FAULT_IED,
            PROBABILITY,
            PROBABILITY,
        ],
    ),
    (
        "undefined stages, duplicate ids and bad deadlines",
        r#"<Stage id="a" after="ghost" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
<Stage id="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/>
<Stage id="b" after="b" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
<Objective id="o" kind="breakerOpen" target="EPIC/CB_GEN" after="ghost" withinMs="0"/>
<Objective id="o" kind="voltageBand" bus="EPIC/LV/GenBay/CN_GEN" min="0.9" max="1.1" fromMs="500" toMs="500"/>"#,
        &[
            UNDEFINED, UNDEFINED, UNDEFINED, DEADLINE, DEADLINE, DUPLICATE, DUPLICATE,
        ],
    ),
    (
        "two cyber stages on one attacker host",
        r#"<Host name="box" ip="10.0.1.66" switch="GenBus"/>
<Stage id="recon" t="100" kind="scan" host="box" first="10.0.1.11" last="10.0.1.14" ports="102"/>
<Stage id="strike" t="200" kind="fci" host="box" victim="GIED1" item="x"/>"#,
        &[BAD_HOST],
    ),
    (
        "attacker host declared twice",
        r#"<Host name="box" ip="10.0.1.66" switch="GenBus"/>
<Host name="box" ip="10.0.1.67" switch="GenBus"/>"#,
        &[DUPLICATE],
    ),
    (
        "attacker host named like a bundle host",
        r#"<Host name="GIED1" ip="10.0.1.66" switch="GenBus"/>"#,
        &[DUPLICATE],
    ),
    (
        "unparsable attacker address",
        r#"<Host name="box" ip="10.0.1.666" switch="GenBus"/>"#,
        &[BAD_HOST],
    ),
    (
        "attacker address taken by a range host",
        r#"<Host name="box" ip="10.0.1.11" switch="GenBus"/>"#,
        &[BAD_HOST],
    ),
    (
        "two attackers on one address",
        r#"<Host name="box" ip="10.0.1.66" switch="GenBus"/>
<Host name="box2" ip="10.0.1.66" switch="GenBus"/>"#,
        &[BAD_HOST],
    ),
    (
        "unparsable sweep address",
        r#"<Host name="box" ip="10.0.1.66" switch="GenBus"/>
<Stage id="recon" t="100" kind="scan" host="box" first="10.0.1.11" last="ten" ports="102"/>"#,
        &[BAD_HOST],
    ),
    (
        "SCADA alarm on an undefined point",
        r#"<Objective id="o" kind="scadaAlarm" point="Ghost_pt" withinMs="10"/>"#,
        &[UNKNOWN],
    ),
    (
        "displayed-tag objective on an undefined point",
        r#"<Objective id="o" kind="tagBelow" point="Ghost_pt" value="0.5" withinMs="10"/>"#,
        &[UNKNOWN],
    ),
];

fn scenario_xml(body: &str) -> String {
    format!("<Scenario name=\"t\" durationMs=\"1000\">\n{body}\n</Scenario>\n")
}

fn lint_with(bundle: &SgmlBundle, scenario: &str) -> LintReport {
    let mut bundle = bundle.clone();
    bundle.scenarios = vec![scenario.to_string()];
    lint_bundle(&LoadedBundle::from_bundle(&bundle))
}

#[test]
fn lint_and_exercise_refuse_the_same_misfits() {
    let bundle = epic_bundle();
    // The engine refuses before it mutates anything, so one range serves
    // every row.
    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle).unwrap()).unwrap();
    for (what, body, expected) in MISFITS {
        let xml = scenario_xml(body);
        let report = lint_with(&bundle, &xml);
        let findings: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.starts_with("SG5"))
            .collect();
        let mut codes: Vec<&str> = findings.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        assert_eq!(codes, *expected, "{what}: {:#?}", report.diagnostics);
        for d in &findings {
            let span = d.span.as_ref().unwrap();
            assert_eq!(span.file, "exercise01.scenario.xml", "{what}");
            assert!(span.line > 1, "{what}: {d} is not anchored to its element");
        }

        let scenario = Scenario::parse(&xml).unwrap();
        let error = run_exercise(&mut range, &scenario)
            .expect_err(what)
            .to_string();
        // The engine reports the checker's first finding, code and
        // `line:column` first.
        let (code, rest) = error.split_once(' ').unwrap();
        assert!(expected.contains(&code), "{what}: {error}");
        let (line, _) = rest.split_once(':').unwrap();
        assert!(line.parse::<u32>().unwrap() > 1, "{what}: {error}");
    }
    assert_eq!(range.steps_total(), 0, "a refused scenario must not run");
}

#[test]
fn shipped_scenarios_are_clean_under_lint_and_exercise() {
    let bundle = epic_bundle();
    let examples = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(".scenario.xml"))
        .map(|path| std::fs::read_to_string(path).unwrap());
    let mut scenarios: Vec<String> = bundle.scenarios.iter().cloned().chain(examples).collect();
    // Link stages may name a declared attacker host: the engine adds the
    // hosts before any stage runs.
    scenarios.push(scenario_xml(
        r#"<Host name="box" ip="10.0.1.66" switch="GenBus"/>
<Stage id="cut" t="100" kind="link" a="box" b="GenBus" action="down"/>"#,
    ));
    assert_eq!(scenarios.len(), 6);
    let model = CompiledModel::shared(&bundle).unwrap();
    for xml in &scenarios {
        let report = lint_with(&bundle, xml);
        assert!(!report.has_errors(), "{xml}: {:#?}", report.diagnostics);

        let mut scenario = Scenario::parse(xml).unwrap();
        // Acceptance is decided before the first step; skip the run itself.
        scenario.duration_ms = 0;
        let mut range = CyberRange::instantiate(model.clone()).unwrap();
        if let Err(e) = run_exercise(&mut range, &scenario) {
            panic!("{}: {e}", scenario.name);
        }
    }
}

#[test]
fn long_dependency_chain_is_checked_in_linear_time() {
    let stage = |id: String, after: Option<String>| Stage {
        id,
        start: match after {
            Some(stage) => StageStart::After { stage, delay_ms: 0 },
            None => StageStart::At(0),
        },
        action: StageAction::Power(ScenarioAction::OpenSwitch("EPIC/CB_GEN".to_string())),
        pos: Pos::default(),
    };
    // s0 waits for s1, …, s4999 waits for c0, and c0 and c1 wait for each
    // other: every chain stage leads into the one cycle at its end.
    const CHAIN: usize = 5_000;
    let mut stages: Vec<Stage> = (0..CHAIN)
        .map(|i| {
            let next = if i + 1 < CHAIN {
                format!("s{}", i + 1)
            } else {
                "c0".to_string()
            };
            stage(format!("s{i}"), Some(next))
        })
        .collect();
    stages.push(stage("c0".to_string(), Some("c1".to_string())));
    stages.push(stage("c1".to_string(), Some("c0".to_string())));
    let scenario = Scenario {
        name: "hostile".to_string(),
        description: String::new(),
        duration_ms: 1000,
        fault_seed: None,
        stale_ms: None,
        hosts: Vec::new(),
        adversary: None,
        stages,
        objectives: Vec::new(),
    };
    let targets = Targets {
        switches: ["EPIC/CB_GEN".to_string()].into(),
        ..Targets::default()
    };

    let started = Instant::now();
    let findings = check(&scenario, &targets, "hostile.scenario.xml");
    let elapsed = started.elapsed();

    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].code, UNDEFINED);
    assert_eq!(findings[0].context, "Stage c0");
    assert!(
        findings[0].message.contains("c0 -> c1 -> c0"),
        "{findings:#?}"
    );
    assert!(elapsed < Duration::from_millis(250), "took {elapsed:?}");
}
