//! Artifact-level benchmark of the QCCD toolflow.
//!
//! A *pass* runs one paper artifact end to end the way users run it:
//! `qccd::engine::run_spec` followed by a `JsonSink` write. Three
//! workloads stress different layers (see [`Workload`]). The two
//! binaries share this library:
//!
//! * `perfbench-e2e` times untraced passes (wall, CPU, peak memory);
//! * `perfbench-trace` replays each pass through the engine's public
//!   calls with spans at every layer boundary.
//!
//! Both print one JSON line of raw per-pass records; `perfbench/run.py`
//! takes medians, checks digests and prints the benchmark result.
//!
//! This library uses only the engine's user-facing surface (specs,
//! `run_spec`, sinks, generators, the QASM writer), so the untraced
//! benchmark keeps building while inner layers are reworked.

use qccd::circuit::generators::{self, Benchmark, PAPER_SEED};
use qccd::circuit::{qasm, Circuit};
use qccd::engine::{
    run_spec, ArtifactSink, CircuitSpec, Engine, EngineOptions, ExperimentSpec, JsonSink, SpecRun,
};
use qccd::experiments::PAPER_CAPACITIES;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed at which every workload runs the paper presets unchanged,
/// so the recorded reference digests apply.
pub const DEFAULT_SEED: u64 = PAPER_SEED;

/// Repetitions of set-up per run: at least this many, and more until
/// [`SETUP_MIN_TOTAL`] has elapsed, so cheap set-ups get a stable median.
pub const SETUP_MIN_REPS: usize = 3;
/// Minimum total time spent repeating set-up.
pub const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);
/// Timed passes per run never drop below this, however short `--seconds`.
pub const MIN_PASSES: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-capacity Fig. 8 with no result cache: 528 jobs, 132
    /// compiles shared by 4 physical models each. Simulation dominates.
    Fig8Cold,
    /// The A5 policy ablation against a fresh, empty result cache every
    /// pass: all 16 compiler pipelines, one model per compile, and the
    /// only workload that writes result and stage files.
    A5PolicyFreshCache,
    /// Fig. 8 again against a cache that set-up filled: 0 jobs execute,
    /// so only expansion, cache reads, projection and the sink work.
    Fig8WarmCache,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig8Cold,
        Workload::A5PolicyFreshCache,
        Workload::Fig8WarmCache,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Cold => "fig8_cold",
            Workload::A5PolicyFreshCache => "a5_policy_fresh_cache",
            Workload::Fig8WarmCache => "fig8_warm_cache",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's spec with its circuit axis reseeded for `seed`.
    /// QASM inputs for non-default seeds are written under `inputs`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an input file cannot be written.
    pub fn spec(self, seed: u64, inputs: &Path) -> io::Result<ExperimentSpec> {
        let mut spec = match self {
            Workload::Fig8Cold | Workload::Fig8WarmCache => ExperimentSpec::fig8(&PAPER_CAPACITIES),
            Workload::A5PolicyFreshCache => ExperimentSpec::ablation_policy(2),
        };
        spec.circuits = reseed_circuits(&spec.circuits, seed, inputs)?;
        Ok(spec)
    }
}

/// The seeded Table II generator at its paper size, or `None` for a
/// benchmark whose generator takes no seed.
pub fn seeded_circuit(bench: Benchmark, seed: u64) -> Option<Circuit> {
    match bench {
        Benchmark::Supremacy => Some(generators::supremacy(8, 8, 20, seed)),
        Benchmark::Qaoa => Some(generators::qaoa(64, 10, seed)),
        Benchmark::SquareRoot => Some(generators::square_root(40, 1, seed)),
        Benchmark::Qft | Benchmark::Adder | Benchmark::Bv => None,
    }
}

/// Replaces each seeded benchmark on the circuit axis by its `seed`
/// instance, handed to the program as a QASM file under `dir`. At
/// [`DEFAULT_SEED`] the axis is returned unchanged.
fn reseed_circuits(axis: &[CircuitSpec], seed: u64, dir: &Path) -> io::Result<Vec<CircuitSpec>> {
    if seed == DEFAULT_SEED {
        return Ok(axis.to_vec());
    }
    let mut out = Vec::with_capacity(axis.len());
    for entry in axis {
        let circuit = match entry {
            CircuitSpec::Benchmark(b) => seeded_circuit(*b, seed).map(|c| (b.name(), c)),
            CircuitSpec::Qasm { .. } => None,
        };
        match circuit {
            None => out.push(entry.clone()),
            Some((name, circuit)) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("{name}-seed{seed}.qasm"));
                std::fs::write(&path, qasm::write(&circuit))?;
                out.push(CircuitSpec::Qasm {
                    path: path.display().to_string(),
                });
            }
        }
    }
    Ok(out)
}

/// The working directory layout of one run.
#[derive(Debug, Clone)]
pub struct Dirs {
    root: PathBuf,
}

impl Dirs {
    /// A layout rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Dirs {
        Dirs { root: root.into() }
    }

    /// Generated QASM inputs.
    pub fn inputs(&self) -> PathBuf {
        self.root.join("inputs")
    }

    /// The result cache set-up fills for `fig8_warm_cache`.
    pub fn warm_cache(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// A scratch directory for one pass (fresh caches, probes).
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Where passes write their artifact.
    pub fn artifact(&self) -> PathBuf {
        self.root.join("artifact.json")
    }
}

/// Removes `dir` if it exists.
///
/// # Errors
///
/// Returns any error other than the directory being absent.
pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Counters a pass must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassCounts {
    /// Unique jobs in the grid.
    pub jobs: usize,
    /// Jobs executed.
    pub executed: usize,
    /// Jobs served from the result cache.
    pub cached: usize,
    /// Compilations.
    pub compiles: usize,
    /// Circuits constructed for the grid.
    pub parses: usize,
    /// Jobs whose outcome is an error.
    pub job_errors: usize,
    /// Route legs over every successful job.
    pub shuttle_moves: u64,
    /// Modelled (simulated, not host) seconds over every successful job.
    pub simulated_s: f64,
}

impl PassCounts {
    /// The counters of a finished spec run.
    pub fn of(run: &SpecRun) -> PassCounts {
        let mut counts = PassCounts {
            jobs: run.stats.jobs,
            executed: run.stats.executed,
            cached: run.stats.cached,
            compiles: run.stats.compiles,
            parses: run.stats.parses,
            job_errors: 0,
            shuttle_moves: 0,
            simulated_s: 0.0,
        };
        for outcome in run.results.job_outcomes() {
            match outcome {
                Ok(report) => {
                    counts.shuttle_moves += report.counts.moves as u64;
                    counts.simulated_s += report.total_time_s();
                }
                Err(_) => counts.job_errors += 1,
            }
        }
        counts
    }

    /// The counters as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"jobs\": {}, \"executed\": {}, \"cached\": {}, \"compiles\": {}, \
             \"parses\": {}, \"job_errors\": {}, \"sim.shuttle_moves\": {}, \
             \"sim.simulated_s\": {}}}",
            self.jobs,
            self.executed,
            self.cached,
            self.compiles,
            self.parses,
            self.job_errors,
            self.shuttle_moves,
            json_f64(self.simulated_s),
        )
    }
}

/// One untraced pass: `run_spec` plus the `JsonSink` write.
pub struct Pass {
    /// Host wall seconds of `run_spec` plus the sink write.
    pub wall_s: f64,
    /// Host CPU seconds (user + system, all threads) over the same span.
    pub cpu_s: f64,
    /// FNV-1a digest of the artifact JSON the sink wrote.
    pub digest: String,
    /// Size of that artifact file.
    pub sink_bytes: u64,
    /// The exact counters of the pass.
    pub counts: PassCounts,
}

impl Pass {
    /// The pass as a JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_s\": {}, \"cpu_s\": {}, \"digest\": \"{}\", \"sink_bytes\": {}, \
             \"counts\": {}}}",
            json_f64(self.wall_s),
            json_f64(self.cpu_s),
            self.digest,
            self.sink_bytes,
            self.counts.to_json(),
        )
    }
}

/// The engine passes run on: the default engine, caching into
/// `cache_dir` when one is given.
pub fn engine_for(cache_dir: Option<PathBuf>) -> Engine {
    Engine::with_options(EngineOptions {
        cache_dir,
        ..EngineOptions::default()
    })
}

/// Runs one timed pass of `spec` on `engine`, writing the artifact to
/// `artifact`. The spec run is returned beside the pass record for
/// cross-checks; callers that keep many records drop it.
///
/// # Errors
///
/// Returns a message if the spec does not run or the sink fails.
pub fn run_pass(
    spec: &ExperimentSpec,
    engine: &Engine,
    artifact: &Path,
) -> Result<(Pass, SpecRun), String> {
    let cpu0 = cpu_seconds();
    // qccd-lint: allow(ambient-nondeterminism) — benchmark timing: durations go to the benchmark's report, never into a pass or its artifact
    let t0 = Instant::now();
    let run = run_spec(spec, engine).map_err(|e| e.to_string())?;
    JsonSink::new(artifact)
        .emit(&run.artifact)
        .map_err(|e| format!("{}: {e}", artifact.display()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let (digest, sink_bytes) = digest_file(artifact)?;
    let pass = Pass {
        wall_s,
        cpu_s,
        digest,
        sink_bytes,
        counts: PassCounts::of(&run),
    };
    Ok((pass, run))
}

/// Runs one pass of `workload`: a cold pass, a pass into a freshly made
/// cache directory, or a pass against the cache set-up filled.
///
/// # Errors
///
/// As [`run_pass`], plus failures to clear the fresh cache directory.
pub fn workload_pass(
    workload: Workload,
    spec: &ExperimentSpec,
    dirs: &Dirs,
) -> Result<(Pass, SpecRun), String> {
    let cache = match workload {
        Workload::Fig8Cold => None,
        Workload::A5PolicyFreshCache => {
            let dir = dirs.scratch("fresh");
            remove_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Some(dir)
        }
        Workload::Fig8WarmCache => Some(dirs.warm_cache()),
    };
    run_pass(spec, &engine_for(cache), &dirs.artifact())
}

/// What set-up leaves behind, reported by the `setup` command.
pub struct SetupReport {
    /// Seconds of each set-up repetition.
    pub samples: Vec<f64>,
    /// [`calibrate`] seconds before the first repetition and after each.
    pub calibrations: Vec<f64>,
    /// The warm-cache fill's digest and counters, if set-up ran one.
    pub fill: Option<(String, PassCounts)>,
}

impl SetupReport {
    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"setup_s\": {}, \"calib_s\": {}",
            json_f64s(&self.samples),
            json_f64s(&self.calibrations)
        );
        if let Some((digest, counts)) = &self.fill {
            let _ = write!(
                out,
                ", \"fill\": {{\"digest\": \"{digest}\", \"counts\": {}}}",
                counts.to_json()
            );
        }
        out.push('}');
        out
    }
}

/// Prepares a run of `workload` under `dirs`, repeating set-up so its
/// median is stable: each repetition clears `dirs`, writes the seeded
/// inputs, checks that the spec expands, and for `fig8_warm_cache`
/// fills the result cache with one full pass. The last repetition's
/// state is what the measured passes use. [`calibrate`] runs before the
/// first repetition and after each, so each can be set against the
/// host's speed at the time.
///
/// # Errors
///
/// Returns a message if any step fails.
pub fn setup(workload: Workload, seed: u64, dirs: &Dirs) -> Result<SetupReport, String> {
    // qccd-lint: allow(ambient-nondeterminism) — benchmark timing: durations go to the benchmark's report, never into a pass or its artifact
    let started = Instant::now();
    let mut samples = Vec::new();
    // The first calibration in a process also faults its memory in.
    calibrate();
    let mut calibrations = vec![calibrate()];
    let mut fill = None;
    while samples.len() < SETUP_MIN_REPS || started.elapsed() < SETUP_MIN_TOTAL {
        remove_dir(&dirs.root).map_err(|e| format!("{}: {e}", dirs.root.display()))?;
        std::fs::create_dir_all(&dirs.root).map_err(|e| e.to_string())?;
        // qccd-lint: allow(ambient-nondeterminism) — benchmark timing: durations go to the benchmark's report, never into a pass or its artifact
        let t0 = Instant::now();
        let spec = workload
            .spec(seed, &dirs.inputs())
            .map_err(|e| format!("writing inputs: {e}"))?;
        spec.expand().map_err(|e| e.to_string())?;
        if workload == Workload::Fig8WarmCache {
            let engine = engine_for(Some(dirs.warm_cache()));
            let (pass, _) = run_pass(&spec, &engine, &dirs.artifact())?;
            fill = Some((pass.digest, pass.counts));
        }
        samples.push(t0.elapsed().as_secs_f64());
        calibrations.push(calibrate());
    }
    Ok(SetupReport {
        samples,
        calibrations,
        fill,
    })
}

/// Seconds one run of a fixed reference computation takes right now.
///
/// The computation is the benchmark's own (sorting 2 MiB of integers,
/// formatting floats, hashing the text) and calls nothing of the program
/// under test, so its time follows only the host's current speed: other
/// tenants' load moves that speed by tens of percent for seconds at a
/// time. `perfbench/run.py` scales each timed interval by the
/// calibrations around it.
pub fn calibrate() -> f64 {
    // qccd-lint: allow(ambient-nondeterminism) — benchmark timing: durations go to the benchmark's report, never into a pass or its artifact
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut values: Vec<u64> = (0..1 << 18)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut text = String::new();
    for &v in values.iter().step_by(16) {
        let _ = write!(text, "{:?},", (v >> 11) as f64 * 1e-9);
    }
    std::hint::black_box(fnv1a_hex(text.as_bytes()));
    t0.elapsed().as_secs_f64()
}

/// FNV-1a 64-bit digest of `bytes`, as 16 hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest and size of a file.
///
/// # Errors
///
/// Returns a message if the file cannot be read.
pub fn digest_file(path: &Path) -> Result<(String, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((fnv1a_hex(&bytes), bytes.len() as u64))
}

/// A finite `f64` in shortest round-trip form, valid as JSON.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON array of finite `f64`s.
pub fn json_f64s(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| json_f64(*x)).collect();
    format!("[{}]", items.join(", "))
}

// The two readers below declare C structs with the 64-bit Linux layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time and peak memory through the 64-bit Linux C ABI");

/// Host CPU seconds (user + system) consumed so far by every thread of
/// this process.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s (ru_utime,
    // ru_stime) then fourteen `long`s, of which ru_maxrss (KiB) is first.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is 144 writable bytes, the size of `struct rusage`
    // on 64-bit Linux, and lives across the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage[4] as f64 / 1024.0
}

/// Command-line arguments shared by both binaries:
/// `<setup|measure> --workload W --seed N --dir D [--seconds S]`.
#[derive(Debug, Clone)]
pub struct Args {
    /// `setup` or `measure`.
    pub command: String,
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Working directory of the run.
    pub dirs: Dirs,
    /// Seconds to measure for.
    pub seconds: f64,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown or malformed arguments.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let command = args.next().ok_or("missing command (setup|measure)")?;
        if command != "setup" && command != "measure" {
            return Err(format!("unknown command `{command}` (setup|measure)"));
        }
        let (mut workload, mut seed, mut dir, mut seconds) = (None, None, None, 10.0);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(bad)?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--dir" => dir = Some(PathBuf::from(&value)),
                "--seconds" => {
                    seconds = value.parse::<f64>().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            command,
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            dirs: Dirs::new(dir.ok_or("missing --dir")?),
            seconds,
        })
    }

    /// Runs the `setup` command and prints its report.
    ///
    /// # Errors
    ///
    /// As [`setup`].
    pub fn run_setup(&self) -> Result<(), String> {
        let report = setup(self.workload, self.seed, &self.dirs)?;
        println!("{}", report.to_json());
        Ok(())
    }

    /// The spec of this run, reading the inputs set-up wrote.
    ///
    /// # Errors
    ///
    /// Returns a message if the inputs cannot be written.
    pub fn spec(&self) -> Result<ExperimentSpec, String> {
        self.workload
            .spec(self.seed, &self.dirs.inputs())
            .map_err(|e| format!("inputs: {e}"))
    }

    /// Repeats `step` until `--seconds` have elapsed and at least
    /// [`MIN_PASSES`] steps ran, after one untimed warm-up call.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step.
    pub fn repeat<T>(&self, mut step: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
        step()?;
        let budget = Duration::from_secs_f64(self.seconds);
        // qccd-lint: allow(ambient-nondeterminism) — benchmark timing: durations go to the benchmark's report, never into a pass or its artifact
        let started = Instant::now();
        let mut out = Vec::new();
        while out.len() < MIN_PASSES || started.elapsed() < budget {
            out.push(step()?);
        }
        Ok(out)
    }
}

/// Runs a binary's `main`: parses arguments, dispatches `setup` to the
/// shared set-up and `measure` to `measure`, and exits non-zero with the
/// message on any error.
pub fn main_with(measure: impl FnOnce(&Args) -> Result<(), String>) {
    // qccd-lint: allow(ambient-nondeterminism) — argv is the benchmark's own input, parsed once
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.command == "setup" {
            args.run_setup()
        } else {
            measure(&args)
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generators_reproduce_the_presets_at_the_default_seed() {
        for bench in Benchmark::ALL {
            if let Some(circuit) = seeded_circuit(bench, DEFAULT_SEED) {
                assert_eq!(circuit, bench.build(), "{bench}");
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig8"), None);
    }

    #[test]
    fn other_seeds_reach_the_program_only_as_qasm_files() {
        let dir = std::env::temp_dir().join(format!("perfbench-seed-{}", std::process::id()));
        let spec = Workload::Fig8Cold.spec(7, &dir).unwrap();
        let qasm: Vec<&String> = spec
            .circuits
            .iter()
            .filter_map(|c| match c {
                CircuitSpec::Qasm { path } => Some(path),
                CircuitSpec::Benchmark(_) => None,
            })
            .collect();
        assert_eq!(qasm.len(), 3);
        let grid = spec.expand().unwrap();
        let ops = |c: &Circuit| c.operations().to_vec();
        let seeded = seeded_circuit(Benchmark::Supremacy, 7).unwrap();
        assert_eq!(ops(&grid.circuits()[0]), ops(&seeded));
        assert_ne!(ops(&seeded), ops(&Benchmark::Supremacy.build()));
        remove_dir(&dir).unwrap();
        let unchanged = Workload::Fig8Cold.spec(DEFAULT_SEED, &dir).unwrap();
        assert_eq!(unchanged, ExperimentSpec::fig8(&PAPER_CAPACITIES));
    }

    #[test]
    fn args_reject_bad_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        assert!(parse("measure --workload fig8_cold --seed 3 --dir d --seconds 2").is_ok());
        assert!(parse("measure --workload nope --seed 3 --dir d").is_err());
        assert!(parse("measure --workload fig8_cold --seed -1 --dir d").is_err());
        assert!(parse("measure --workload fig8_cold --seed 1 --dir d --seconds 0").is_err());
        assert!(parse("bogus --workload fig8_cold --seed 1 --dir d").is_err());
        assert!(parse("setup --workload fig8_cold --dir d").is_err());
    }

    #[test]
    fn calibration_takes_a_positive_time() {
        let c = calibrate();
        assert!(c > 0.0 && c < 10.0, "{c}");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
