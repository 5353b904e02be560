//! Seeded input generators. The program under test only sees the bundle
//! directories and scenario files written from these; the same seed always
//! yields byte-identical inputs.

use sg_cyber_range::core::PowerExtraConfig;
use sg_cyber_range::models::{ieds_in_substation, profiles, substation_name, MultiSubParams};
use sg_cyber_range::powerflow::{Profile, ProfileTarget, SimulationSchedule};

/// SplitMix64: tiny, seedable, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under the workload seed, so
    /// adding draws for one input never shifts another input.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const STREAM_PROFILE: u64 = 1;
const STREAM_CLASS: u64 = 2;
const STREAM_EDIT: u64 = 3;
const STREAM_AGES: u64 = 4;

/// Simulated intervals in one `s5-paper` load day: the repository's load
/// shapes are compressed so one day spans `points * interval` (EPIC uses 8
/// points of 60 s); 50 intervals make a 5 s day, so a one-second window of
/// stepping covers two or more days.
pub const S5_DAY_POINTS: usize = 50;

/// The `s5-paper` power config: one `LoadScaling` profile per feeder load
/// of the paper-profile model, one point every interval for `points`
/// intervals, so every solve sees new injections. Each load follows the
/// repository's `residential` or `industrial` day shape (0.45-1.5 of
/// nominal; the shape is drawn per load from the seed), starting at a
/// seeded time of day, times a per-load random walk in `[0.85, 1.15]`.
pub fn s5_power_config(params: &MultiSubParams, points: usize, seed: u64) -> PowerExtraConfig {
    let mut rng = Rng::new(seed, STREAM_PROFILE);
    let day_offset = rng.below(S5_DAY_POINTS as u64) as usize;
    let shapes = [
        profiles::residential(S5_DAY_POINTS, params.interval_ms),
        profiles::industrial(S5_DAY_POINTS, params.interval_ms),
    ];
    let mut schedule = SimulationSchedule::new();
    for s in 0..params.substations {
        for f in 0..ieds_in_substation(params, s) {
            let shape = &shapes[rng.below(2) as usize];
            let mut walk = 0.85 + 0.3 * rng.unit();
            let mut profile = Vec::with_capacity(points);
            for k in 0..points {
                let level = shape[(k + day_offset) % S5_DAY_POINTS].1;
                profile.push((k as u64 * params.interval_ms, round3(level * walk)));
                walk = (walk + 0.06 * (rng.unit() - 0.5)).clamp(0.85, 1.15);
            }
            schedule.profiles.push(Profile {
                target: ProfileTarget::LoadScaling(format!("{}/LOAD{}", substation_name(s), f + 1)),
                points: profile,
            });
        }
    }
    PowerExtraConfig {
        interval_ms: params.interval_ms,
        schedule,
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// The `epic-class` exercise drawn from the workload seed.
pub struct ClassExercise {
    /// The scenario XML the benchmark writes into the bundle.
    pub xml: String,
    /// Tenant *i* of the farm runs under fault seed `fault_base + i`.
    pub fault_base: u64,
}

/// One goal-driven adversary (seed drawn from the workload seed) plus the
/// `epic_faults` drill stages: a lossy SCADA link, a stuck CT, and an MIED1
/// crash with watchdog restart. The drill's `stale:` alarm objective is
/// replaced by its voltage-band objective because the linter rejects
/// `stale:` points (SG5001). No `faultSeed=` attribute, so each farm tenant
/// keeps its own fault seed.
pub fn class_exercise(seed: u64) -> ClassExercise {
    let mut rng = Rng::new(seed, STREAM_CLASS);
    let adversary_seed = rng.below(1 << 20);
    let fault_base = rng.below(1 << 20) * 1000;
    let xml = format!(
        r#"<Scenario name="bench-class" description="Training class: goal-driven adversary plus the fault drill." durationMs="9000" staleMs="1500">
  <Adversary goal="breakerOpen:EPIC/CB_GEN" budget="4" seed="{adversary_seed}"/>
  <Stage id="lossy-link" t="500" kind="linkFault" a="SCADA" b="ControlBus" loss="0.05" jitterMs="2"/>
  <Stage id="stuck-ct" t="1000" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_ka" mode="stuck"/>
  <Stage id="crash-mied1" t="2000" kind="crash" host="MIED1" restartAfterMs="3000"/>
  <Stage id="heal-ct" after="stuck-ct" delayMs="5000" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_ka" mode="clear"/>
  <Objective id="volt-band" kind="voltageBand" bus="EPIC/LV/GenBay/CN_GEN" min="0.85" max="1.15" fromMs="0" toMs="9000"/>
</Scenario>
"#
    );
    ClassExercise { xml, fault_base }
}

/// The scenario a traced `s5-paper` run exercises: a goal-driven adversary
/// against the first feeder breaker.
pub fn s5_exercise(seed: u64) -> String {
    let adversary_seed = Rng::new(seed, STREAM_CLASS).below(1 << 20);
    format!(
        r#"<Scenario name="bench-s5" description="Goal-driven adversary against the first feeder." durationMs="3000">
  <Adversary goal="breakerOpen:S1/CB1" budget="4" seed="{adversary_seed}"/>
</Scenario>
"#
    )
}

/// The seeded one-file edit: edit number `k` (0, 1, …) rescales the first
/// protection threshold in `ied_config.xml` by a factor no earlier edit of
/// the same run used, so every edit is new content for the lint cache.
pub fn edit_threshold(ied_config: &str, seed: u64, k: u64) -> Option<String> {
    let offset = Rng::new(seed, STREAM_EDIT).below(500);
    let factor = 1.0 + 0.0001 * (1 + offset + k) as f64;
    let start = ied_config.find("threshold=\"")? + "threshold=\"".len();
    let len = ied_config[start..].find('"')?;
    let old: f64 = ied_config[start..start + len].parse().ok()?;
    Some(format!(
        "{}{}{}",
        &ied_config[..start],
        old * factor,
        &ied_config[start + len..]
    ))
}

/// The young and old tenant ages (in steps) for checkpoint/resume, jittered
/// a little by the seed around `young`/`old`.
pub fn ages(seed: u64, young: u64, old: u64) -> (u64, u64) {
    let mut rng = Rng::new(seed, STREAM_AGES);
    (
        young + rng.below(young / 16 + 1),
        old + rng.below(old / 64 + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        let p = MultiSubParams::paper_profile();
        assert_eq!(s5_power_config(&p, 8, 3), s5_power_config(&p, 8, 3));
        assert_ne!(s5_power_config(&p, 8, 3), s5_power_config(&p, 8, 4));
        assert_eq!(class_exercise(5).xml, class_exercise(5).xml);
        assert_ne!(class_exercise(5).xml, class_exercise(6).xml);
        assert_eq!(ages(9, 100, 3000), ages(9, 100, 3000));
    }

    #[test]
    fn edits_touch_only_the_first_threshold() {
        let text = r#"<a threshold="0.15"/><b threshold="0.1"/>"#;
        let e0 = edit_threshold(text, 1, 0).unwrap();
        let e1 = edit_threshold(text, 1, 1).unwrap();
        assert_ne!(e0, e1);
        assert!(e0.ends_with(r#"<b threshold="0.1"/>"#));
        assert!(edit_threshold("<a/>", 1, 0).is_none());
    }
}
