//! `--self-check`: every workload at tiny run lengths, asserting the output
//! contract rather than any timing.

use crate::bench::{self, Ctx, Workload};
use crate::report::{self, Metric, DETERMINISTIC, END_TO_END, PER_LAYER};
use crate::run_workload;
use sg_cyber_range::obs::json::{self, Value};

/// The benchmark's declaration, checked against the catalog in code.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// `BENCHMARK.json` lists exactly the workloads and metrics the code runs
/// and prints, with the same units and reasons.
fn declaration_matches_code() -> Result<(), String> {
    let decl = json::parse(BENCHMARK_JSON)?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let items = decl
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key}"))?;
        items
            .iter()
            .map(|item| {
                let field = |f: &str| item.get(f).and_then(Value::as_str).map(str::to_string);
                Ok((
                    field("name").ok_or(format!("{key} entry without a name"))?,
                    field("unit")
                        .or_else(|| field("why"))
                        .ok_or(format!("{key} entry without unit/why"))?,
                ))
            })
            .collect()
    };
    let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    };
    ensure(list("end_to_end")? == owned(END_TO_END), || {
        "end_to_end differs from the code".into()
    })?;
    ensure(list("per_layer")? == owned(PER_LAYER), || {
        "per_layer differs from the code".into()
    })?;
    let workloads: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    ensure(list("workloads")? == owned(&workloads), || {
        "workloads differ from the code".into()
    })
}

/// The result line parses, and names every expected metric with its unit.
fn check_result_line(
    label: &str,
    metrics: &[Metric],
    expected: &[(&str, &str)],
    tally: &bench::Tally,
) -> Result<(), String> {
    let line = report::result_json(metrics, tally);
    let parsed =
        json::parse(&line).map_err(|e| format!("{label}: result line is not JSON: {e}"))?;
    ensure(tally.failed == 0, || {
        format!("{label}: failed checks: {:?}", tally.messages)
    })?;
    ensure(
        parsed.get("correct").and_then(Value::as_bool) == Some(true),
        || format!("{label}: not correct"),
    )?;
    let Some(Value::Object(printed)) = parsed.get("metrics") else {
        return Err(format!("{label}: no metrics object"));
    };
    let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    ensure(names == want, || {
        format!("{label}: printed {names:?}, expected {want:?}")
    })?;
    for ((name, value), (_, unit)) in printed.iter().zip(expected) {
        let v = value.get("value").and_then(Value::as_f64);
        ensure(v.is_some_and(|v| v >= 0.0), || {
            format!("{label}: {name} has no value")
        })?;
        ensure(
            value.get("unit").and_then(Value::as_str) == Some(unit),
            || format!("{label}: {name} lacks unit {unit}"),
        )?;
    }
    Ok(())
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// The bus voltages an `s5-paper` range reaches after a few steps on the
/// inputs generated from `seed`.
fn s5_voltages(seed: u64) -> Result<Vec<f64>, String> {
    let mut ctx = Ctx::new(Workload::S5Paper, seed, true, false)?;
    let solved = bench::setup_once(&mut ctx).and_then(|(model, _)| {
        let mut range = ctx.tenant(&model)?;
        for _ in 0..5 {
            range.step();
        }
        Ok(range.last_result.bus.iter().map(|b| b.vm_pu).collect())
    });
    ctx.cleanup();
    solved
}

pub fn run() -> Result<(), String> {
    declaration_matches_code()?;
    for workload in Workload::ALL {
        let label = workload.name();
        let e2e = run_workload(workload, 1, 0.3, false, true)?;
        check_result_line(label, &e2e.metrics, END_TO_END, &e2e.tally)?;
        for m in &e2e.metrics {
            ensure(m.value > 0.0, || {
                format!("{label}: end-to-end {} is 0", m.name)
            })?;
        }
        let first = run_workload(workload, 1, 0.3, true, true)?;
        check_result_line(label, &first.metrics, PER_LAYER, &first.tally)?;
        ensure(
            first.trace_file.as_ref().is_some_and(|p| p.exists()),
            || format!("{label}: no span file"),
        )?;
        let again = run_workload(workload, 1, 0.3, true, true)?;
        for name in DETERMINISTIC {
            let (a, b) = (value(&first.metrics, name), value(&again.metrics, name));
            ensure(a.to_bits() == b.to_bits(), || {
                format!("{label}: {name} read {a} then {b} for one seed")
            })?;
        }
        println!("self-check: {label} ok");
    }
    // With the repository's load shapes every s5 solve takes the same
    // number of NR iterations from a flat start, so the seed shows in the
    // solution rather than in the iteration count.
    ensure(s5_voltages(1)? != s5_voltages(2)?, || {
        "s5-paper solves the same bus voltages for seeds 1 and 2".to_string()
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_check_passes() {
        if let Err(e) = super::run() {
            panic!("{e}");
        }
    }
}
