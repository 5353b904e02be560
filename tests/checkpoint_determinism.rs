//! Mid-run checkpoint/restore end-to-end: pausing a range at an arbitrary
//! step and resuming it from the serialized checkpoint is invisible — the
//! resumed range's journal is byte-identical to one that never paused — and
//! the typed error surface (version mismatch, model mismatch, decode
//! failures) rejects everything else up front.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{
    Checkpoint, CheckpointError, CompiledModel, RangeBuilder, CHECKPOINT_VERSION,
};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::net::SimDuration;
use sg_cyber_range::obs::Telemetry;

/// Drops the one wall-clock field in the journal (`SolveCompleted.seconds`)
/// so two replays of the same simulation compare byte-identically.
fn strip_wall_clock(journal: &str) -> String {
    journal
        .lines()
        .map(|line| match line.find(",\"seconds\":") {
            Some(start) => {
                let end = line[start..].find('}').map_or(line.len(), |j| start + j);
                format!("{}{}\n", &line[..start], &line[end..])
            }
            None => format!("{line}\n"),
        })
        .collect()
}

#[test]
fn resume_then_step_is_byte_identical_to_never_pausing() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");

    // The reference: one uninterrupted four-second run.
    let reference_telemetry = Telemetry::new();
    let mut reference = RangeBuilder::from_model(model.clone())
        .telemetry(reference_telemetry.clone())
        .fault_seed(11)
        .build()
        .expect("reference instantiates");
    reference.run_for(SimDuration::from_secs(4));
    let total_steps = reference.steps_total();
    assert!(total_steps > 0);

    // The paused run: identical settings, stopped halfway, checkpointed,
    // serialized through JSON, resumed into a *fresh* telemetry handle,
    // then driven to the same step count.
    let paused_telemetry = Telemetry::new();
    let mut paused = RangeBuilder::from_model(model.clone())
        .telemetry(paused_telemetry.clone())
        .fault_seed(11)
        .build()
        .expect("paused range instantiates");
    paused.run_for(SimDuration::from_secs(2));
    let mid_steps = paused.steps_total();
    assert!(mid_steps > 0 && mid_steps < total_steps);

    let checkpoint = paused.checkpoint();
    assert_eq!(checkpoint.steps(), mid_steps);
    assert_eq!(checkpoint.sim_time_ns(), paused.now().as_nanos());
    drop(paused);

    // JSON round-trip is lossless: re-encoding the decoded checkpoint
    // reproduces the original document byte-for-byte.
    let encoded = checkpoint.to_json();
    let decoded = Checkpoint::from_json(&encoded).expect("checkpoint JSON decodes");
    assert_eq!(decoded.to_json(), encoded, "round-trip must be lossless");

    // Older checkpoints also carry the since-fixed retention bounds; they
    // are ignored, so even a bound of 0 decodes to the same checkpoint.
    let legacy = encoded.replacen(
        "\"settings\":{",
        "\"settings\":{\"step_stats_capacity\":0,\"solve_errors_capacity\":0,",
        1,
    );
    assert_ne!(legacy, encoded, "the settings object must be found");
    let legacy = Checkpoint::from_json(&legacy).expect("legacy checkpoint JSON decodes");
    assert_eq!(legacy.to_json(), encoded);

    let resumed_telemetry = Telemetry::new();
    let mut resumed = decoded
        .resume(model.clone(), resumed_telemetry.clone())
        .expect("resume replays and verifies against the recorded digests");
    assert_eq!(resumed.steps_total(), mid_steps, "resume lands mid-run");
    while resumed.steps_total() < total_steps {
        resumed.step();
    }

    assert_eq!(
        strip_wall_clock(&reference_telemetry.journal_jsonl()),
        strip_wall_clock(&resumed_telemetry.journal_jsonl()),
        "a pause/checkpoint/resume cycle must be invisible in the journal \
         (modulo wall-clock solve time)"
    );
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model.clone())
        .build()
        .expect("range instantiates");
    range.run_for(SimDuration::from_secs(1));
    let encoded = range.checkpoint().to_json();

    // Tamper only with the format version (the `"format"` prefix keeps the
    // replacement from touching `store_version`).
    let tampered = encoded.replace(
        "\"format\":\"sgcr-checkpoint\",\"version\":1,",
        "\"format\":\"sgcr-checkpoint\",\"version\":99,",
    );
    assert_ne!(tampered, encoded, "tamper must hit the version field");
    let decoded = Checkpoint::from_json(&tampered).expect("decode does not enforce the version");
    match decoded.resume(model, Telemetry::new()).map(|_| ()) {
        Err(CheckpointError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, CHECKPOINT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn resuming_against_a_different_model_is_rejected() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model)
        .build()
        .expect("range instantiates");
    range.run_for(SimDuration::from_secs(1));
    let checkpoint = range.checkpoint();

    let other_bundle = multisub_bundle(&MultiSubParams {
        substations: 2,
        total_ieds: 4,
        interval_ms: 100,
    });
    let other_model = CompiledModel::shared(&other_bundle).expect("multisub bundle compiles");
    match checkpoint.resume(other_model, Telemetry::new()).map(|_| ()) {
        Err(CheckpointError::ModelMismatch { found, expected }) => {
            assert_ne!(found, expected, "fingerprints must differ");
        }
        other => panic!("expected ModelMismatch, got {other:?}"),
    }
}

#[test]
fn resuming_against_an_edited_ied_threshold_is_rejected() {
    let bundle = epic_bundle();
    let model = CompiledModel::shared(&bundle).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model)
        .build()
        .expect("range instantiates");
    range.run_for(SimDuration::from_secs(1));
    let checkpoint = range.checkpoint();

    // Same hosts, IEDs and topology; only one protection setting differs.
    let mut edited = bundle;
    let config = edited.ied_config.take().expect("EPIC ships an IED config");
    let retuned = config.replacen("threshold=\"0.15\"", "threshold=\"0.25\"", 1);
    assert_ne!(retuned, config, "edit must hit a threshold");
    edited.ied_config = Some(retuned);
    let edited_model = CompiledModel::shared(&edited).expect("edited bundle compiles");
    match checkpoint
        .resume(edited_model, Telemetry::new())
        .map(|_| ())
    {
        Err(CheckpointError::ModelMismatch { found, expected }) => {
            assert_ne!(found, expected, "fingerprints must differ");
        }
        other => panic!("expected ModelMismatch, got {other:?}"),
    }
}

#[test]
fn malformed_checkpoint_documents_fail_to_decode() {
    for bad in [
        "",
        "not json",
        "{}",
        "{\"format\":\"something-else\",\"version\":1}",
        "[1,2,3]",
    ] {
        match Checkpoint::from_json(bad) {
            Err(CheckpointError::Decode { .. }) => {}
            other => panic!("{bad:?} must fail to decode, got {other:?}"),
        }
    }
}

#[test]
fn non_integral_or_huge_step_counts_fail_to_decode() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model)
        .build()
        .expect("range instantiates");
    range.run_for(SimDuration::from_secs(1));
    let encoded = range.checkpoint().to_json();
    let steps = format!("\"steps\":{},", range.steps_total());
    assert!(encoded.contains(&steps));
    Checkpoint::from_json(&encoded).expect("the untouched checkpoint decodes");
    // Truncating 2.5 or saturating 1e300 would make `resume` replay a step
    // count the checkpoint never recorded (about 2^64 steps for 1e300).
    for bad in ["2.5", "1e300", "-1", "18446744073709551616"] {
        let tampered = encoded.replacen(&steps, &format!("\"steps\":{bad},"), 1);
        assert_ne!(tampered, encoded);
        match Checkpoint::from_json(&tampered) {
            Err(CheckpointError::Decode { .. }) => {}
            other => panic!("steps {bad} must fail to decode, got {other:?}"),
        }
    }
}
