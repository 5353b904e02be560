//! What every workload shares: the run context, input writing, the
//! bundle-to-range set-up, correctness tallies, the one-file edit with a
//! warm re-lint, and checkpoint/resume of aged tenants.

use crate::gen;
use crate::spans::Spans;
use crate::stats::{mean, min};
use sg_cyber_range::core::{Checkpoint, CompiledModel, CyberRange, RangeBuilder, SgmlBundle};
use sg_cyber_range::kvstore::Entry;
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::obs::{Plane, Telemetry, TraceCtx};
use sg_cyber_range::scenario::Scenario;
use sg_cyber_range::scl::Severity;
use sgcr_lint::engine::lint_dir_incremental;
use sgcr_lint::lint_bundle;
use sgcr_lint::source::LoadedBundle;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A benchmark-level failure: the run cannot produce a result at all.
pub type Fatal = String;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    S5Paper,
    EpicClass,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::S5Paper, Workload::EpicClass];

    pub fn name(self) -> &'static str {
        match self {
            Workload::S5Paper => "s5-paper",
            Workload::EpicClass => "epic-class",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (kept in sync with
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::S5Paper => {
                "paper's 5-substation/104-IED point on one thread; random-walk loads give every NR solve new inputs, so the power plane dominates"
            }
            Workload::EpicClass => {
                "training class: many EPIC exercise tenants (adversary + fault drill) on nproc farm threads; cyber planes, coupling and farm dominate"
            }
        }
    }

    /// Checkpoint ages `(young, old)` in steps before seed jitter. A
    /// `s5-paper` step costs ~70 EPIC steps, so its ages are smaller.
    fn base_ages(self) -> (u64, u64) {
        match self {
            Workload::S5Paper => (2, 20),
            Workload::EpicClass => (100, 3000),
        }
    }
}

/// Attempted and failed operations of one run, plus the first few failure
/// messages (printed to stderr).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One run of one workload.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// Self-check scale: tiny run lengths everywhere.
    pub quick: bool,
    pub work: PathBuf,
    pub bundle: PathBuf,
    pub cache: PathBuf,
    pub spans: Spans,
    pub tally: Tally,
    /// The workload's exercise, parsed back from the file written into the
    /// bundle.
    pub scenario: Scenario,
    /// Tenant fault seeds start here.
    pub fault_base: u64,
    pub young: u64,
    pub old: u64,
}

/// Where runs put their inputs, caches, farm sinks and trace files: inside
/// the benchmark package, ignored by git.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

impl Ctx {
    /// Writes the workload's inputs for `seed` and parses its exercise.
    pub fn new(workload: Workload, seed: u64, quick: bool, traced: bool) -> Result<Ctx, Fatal> {
        let run = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        let work = package_dir().join("work").join(format!(
            "{}-{}-{run}",
            workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&work);
        let bundle_dir = work.join("bundle");
        let (bundle, fault_base) = match workload {
            Workload::S5Paper => {
                let params = MultiSubParams::paper_profile();
                let mut bundle = multisub_bundle(&params);
                let profile = gen::s5_power_config(&params, S5_ROUND_STEPS as usize + 1, seed);
                bundle.power_extra = Some(profile.to_xml());
                bundle.scenarios = vec![gen::s5_exercise(seed)];
                (bundle, gen::class_exercise(seed).fault_base)
            }
            Workload::EpicClass => {
                let class = gen::class_exercise(seed);
                let mut bundle = epic_bundle();
                bundle.scenarios = vec![class.xml];
                (bundle, class.fault_base)
            }
        };
        bundle
            .write_to_dir(&bundle_dir)
            .map_err(|e| format!("writing inputs: {e}"))?;
        let scenario_path = bundle_dir.join("exercise01.scenario.xml");
        let text = std::fs::read_to_string(&scenario_path)
            .map_err(|e| format!("reading {}: {e}", scenario_path.display()))?;
        let scenario = Scenario::parse(&text).map_err(|e| format!("scenario: {e}"))?;
        let (young, old) = workload.base_ages();
        let (young, old) = if quick {
            (young.min(3), old.min(12))
        } else {
            gen::ages(seed, young, old)
        };
        Ok(Ctx {
            workload,
            seed,
            quick,
            cache: work.join("lint-cache"),
            work,
            bundle: bundle_dir,
            spans: Spans::new(traced),
            tally: Tally::default(),
            scenario,
            fault_base,
            young,
            old,
        })
    }

    /// A fresh tenant of `model` with telemetry off.
    pub fn tenant(&self, model: &Arc<CompiledModel>) -> Result<CyberRange, Fatal> {
        self.tenant_with(model, Telemetry::disabled())
    }

    pub fn tenant_with(
        &self,
        model: &Arc<CompiledModel>,
        telemetry: Telemetry,
    ) -> Result<CyberRange, Fatal> {
        RangeBuilder::from_model(model.clone())
            .telemetry(telemetry)
            .fault_seed(self.fault_base)
            .build()
            .map_err(|e| format!("instantiate: {e}"))
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Steps per `s5-paper` range before it restarts from the model; the load
/// profiles cover exactly this horizon.
pub const S5_ROUND_STEPS: u64 = 300;

/// Host seconds of one set-up, by stage.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub lint: f64,
    pub compile: f64,
    pub instantiate: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.lint + self.compile + self.instantiate
    }
}

/// Bundle directory on disk → cold lint → compile → instantiate the first
/// tenant, once.
pub fn setup_once(ctx: &mut Ctx) -> Result<(Arc<CompiledModel>, SetupTimes), Fatal> {
    let root = ctx.spans.open("setup", Plane::Range, None);
    let parent = root.ctx();
    let (report, lint) = ctx.spans.timed("lint.cold", Plane::Range, parent, || {
        LoadedBundle::from_dir(&ctx.bundle).map(|loaded| lint_bundle(&loaded))
    });
    let report = report.map_err(|e| format!("lint: {e}"))?;
    let first_error = report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error);
    ctx.tally.check(first_error.is_none(), || {
        format!("cold lint: {first_error:?}")
    });
    let (compiled, compile) = ctx.spans.timed("core.compile", Plane::Range, parent, || {
        SgmlBundle::from_dir(&ctx.bundle)
            .map_err(|e| e.to_string())
            .and_then(|bundle| CompiledModel::compile(&bundle).map_err(|e| e.to_string()))
    });
    let model = Arc::new(compiled.map_err(|e| format!("compile: {e}"))?);
    let (range, instantiate) = ctx
        .spans
        .timed("core.instantiate", Plane::Range, parent, || {
            ctx.tenant(&model)
        });
    drop(range?);
    ctx.spans.close(root);
    let times = SetupTimes {
        lint,
        compile,
        instantiate,
    };
    Ok((model, times))
}

/// [`setup_once`] repeated at least `min_reps` times and until `budget_s`
/// has passed (set-up is short, so one sample would be noise). Returns the
/// last model and every repetition's times.
pub fn setup(
    ctx: &mut Ctx,
    min_reps: usize,
    budget_s: f64,
) -> Result<(Arc<CompiledModel>, Vec<SetupTimes>), Fatal> {
    let started = Instant::now();
    let (mut model, first) = setup_once(ctx)?;
    let mut times = vec![first];
    while times.len() < min_reps || (started.elapsed().as_secs_f64() < budget_s && times.len() < 41)
    {
        let (next, t) = setup_once(ctx)?;
        model = next;
        times.push(t);
    }
    Ok((model, times))
}

/// Host timings of one checkpoint probe (seconds).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointProbe {
    /// `capture` alone, at the old age.
    pub capture: f64,
    pub json_bytes: usize,
    /// `from_json` + `resume`, at the young and the old age.
    pub resume_young: f64,
    pub resume_old: f64,
}

/// Steps a resumed range runs before its store is compared with the
/// never-paused tenant's.
const VERIFY_STEPS: usize = 10;

/// A tenant aged once to `age` steps, with its checkpoint there and the
/// store it reached `VERIFY_STEPS` later without pausing. It then idles.
pub struct AgedTenant {
    range: CyberRange,
    /// The checkpoint captured at `age`, serialized.
    json: String,
    /// Host seconds of that `checkpoint()` call alone.
    capture: f64,
    after_verify: Vec<(String, Entry)>,
    /// The checkpoint of `range` as it now idles.
    json_now: String,
}

impl AgedTenant {
    pub fn new(ctx: &Ctx, model: &Arc<CompiledModel>, age: u64) -> Result<AgedTenant, Fatal> {
        let mut range = ctx.tenant(model)?;
        for _ in 0..age {
            range.step();
        }
        let (checkpoint, capture) =
            ctx.spans
                .timed("checkpoint.capture", Plane::Range, None, || {
                    range.checkpoint()
                });
        let json = checkpoint.to_json();
        for _ in 0..VERIFY_STEPS {
            range.step();
        }
        let after_verify = range.store.dump();
        let json_now = range.checkpoint().to_json();
        Ok(AgedTenant {
            range,
            json,
            capture,
            after_verify,
            json_now,
        })
    }

    /// `from_json` + `resume` of the checkpoint at the tenant's age, then
    /// checks that the resumed range's next `VERIFY_STEPS` steps reach the
    /// never-paused tenant's store. Returns the resume's host seconds. It
    /// resumes against the model the checkpoint was captured from: edits
    /// change the bundle on disk, not that model.
    pub fn resume_and_verify(
        &self,
        ctx: &mut Ctx,
        name: &'static str,
        parent: Option<TraceCtx>,
    ) -> f64 {
        let (resumed, seconds) = ctx.spans.timed(name, Plane::Range, parent, || {
            Checkpoint::from_json(&self.json)
                .map_err(|e| e.to_string())
                .and_then(|cp| {
                    cp.resume(self.range.model().clone(), Telemetry::disabled())
                        .map_err(|e| e.to_string())
                })
        });
        match resumed {
            Ok(mut resumed) => {
                for _ in 0..VERIFY_STEPS {
                    resumed.step();
                }
                let same = resumed.store.dump() == self.after_verify;
                ctx.tally.check(same, || {
                    format!("{name}: resumed store diverged from the never-paused tenant")
                });
            }
            Err(e) => ctx.tally.check(false, || format!("{name}: {e}")),
        }
        seconds
    }
}

/// Primes the lint cache with the unedited bundle.
pub fn prime_lint_cache(ctx: &mut Ctx) -> Result<(), Fatal> {
    lint_dir_incremental(&ctx.bundle, &ctx.cache)
        .map(drop)
        .map_err(|e| format!("lint cache: {e}"))
}

/// Edit number `k`: rewrite one IED threshold, re-lint through the warm
/// cache, and check the report against a full lint of the edited bundle.
/// Returns `(relint seconds, reused / total queries)`.
pub fn edit_and_relint(
    ctx: &mut Ctx,
    k: u64,
    parent: Option<TraceCtx>,
) -> Result<(f64, f64), Fatal> {
    let path = ctx.bundle.join("ied_config.xml");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let edited =
        gen::edit_threshold(&text, ctx.seed, k).ok_or("ied_config.xml has no threshold")?;
    std::fs::write(&path, edited).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (outcome, relint) = ctx.spans.timed("lint.relint", Plane::Range, parent, || {
        lint_dir_incremental(&ctx.bundle, &ctx.cache)
    });
    let outcome = outcome.map_err(|e| format!("re-lint: {e}"))?;
    let full = LoadedBundle::from_dir(&ctx.bundle)
        .map(|loaded| lint_bundle(&loaded))
        .map_err(|e| format!("lint: {e}"))?;
    ctx.tally.check(outcome.report == full, || {
        format!("edit {k}: re-lint report differs from a full lint")
    });
    let first_error = full
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error);
    ctx.tally.check(first_error.is_none(), || {
        format!("edit {k}: {first_error:?}")
    });
    let ratio = outcome.stats.reused as f64 / outcome.stats.total().max(1) as f64;
    Ok((relint, ratio))
}

/// Checkpoints and resumes a tenant at the young and at the old age,
/// verifying each resume against the tenant that never paused.
pub fn checkpoint_probe(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
) -> Result<CheckpointProbe, Fatal> {
    let root = ctx.spans.open("probe.checkpoint", Plane::Range, None);
    let parent = root.ctx();
    let young = AgedTenant::new(ctx, model, ctx.young)?;
    let resume_young = young.resume_and_verify(ctx, "checkpoint.resume_young", parent);
    drop(young);
    let old = AgedTenant::new(ctx, model, ctx.old)?;
    let resume_old = old.resume_and_verify(ctx, "checkpoint.resume_old", parent);
    ctx.spans.close(root);
    Ok(CheckpointProbe {
        capture: old.capture,
        json_bytes: old.json.len(),
        resume_young,
        resume_old,
    })
}

/// Edits and checkpoints per side round.
const SIDE_REPEATS: u64 = 3;

/// Old tenants the side rounds take turns on. What a checkpoint costs
/// depends on the tenant's hash-table layout, which std randomises per
/// map: on EPIC one tenant's best checkpoint takes ~30 us and another's
/// ~45 us. A run's checkpoint time averages over several tenants.
pub const AGED_TENANTS: usize = 4;

/// Lifecycle and set-up samples a main phase collects between its slices,
/// so they cover the whole run instead of one block of it.
#[derive(Default)]
pub struct Side {
    pub setup: Vec<SetupTimes>,
    pub relint: Vec<f64>,
    /// Round `k`'s best checkpoint, of old tenant `k % AGED_TENANTS`.
    pub checkpoint: Vec<f64>,
    pub resume: Vec<f64>,
}

impl Side {
    /// The mean over the old tenants of each one's best checkpoint.
    pub fn checkpoint_s(&self) -> f64 {
        let best: Vec<f64> = (0..AGED_TENANTS)
            .map(|t| {
                let mine: Vec<f64> = self
                    .checkpoint
                    .iter()
                    .skip(t)
                    .step_by(AGED_TENANTS)
                    .copied()
                    .collect();
                min(&mine)
            })
            .filter(|s| s.is_finite())
            .collect();
        mean(&best)
    }

    /// One more set-up and resume sample, and the best of `SIDE_REPEATS`
    /// edits with a warm re-lint and of as many checkpoints of the old
    /// tenant (both are milliseconds or less, so one sample is noise).
    /// Round `k` makes edits `SIDE_REPEATS * k ..`.
    pub fn round(&mut self, ctx: &mut Ctx, old: &AgedTenant, k: u64) -> Result<(), Fatal> {
        self.setup.push(setup_once(ctx)?.1);
        let mut relint = f64::INFINITY;
        let mut checkpoint = f64::INFINITY;
        for j in 0..SIDE_REPEATS {
            relint = relint.min(edit_and_relint(ctx, SIDE_REPEATS * k + j, None)?.0);
            let (json, seconds) = ctx.spans.timed("checkpoint.write", Plane::Range, None, || {
                old.range.checkpoint().to_json()
            });
            ctx.tally.check(json == old.json_now, || {
                "checkpoint of an idle tenant changed".to_string()
            });
            checkpoint = checkpoint.min(seconds);
        }
        self.relint.push(relint);
        self.checkpoint.push(checkpoint);
        self.resume
            .push(old.resume_and_verify(ctx, "checkpoint.resume_old", None));
        Ok(())
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}
