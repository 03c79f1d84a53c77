//! Golden snapshots of the paper artifacts' `--json` dumps.
//!
//! The studies behind Tables I–II, Figs. 6–8 and the five ablations are
//! regenerated on every run; these tests pin their JSON serializations
//! to committed files so a silent drift in the heating/fidelity/timing
//! models (or in the compiler) breaks the build instead of the paper
//! claims. Figures are pinned both at the `--quick` capacity set (the
//! same three design points the CI smoke run uses) and at full size,
//! where each golden is the `run --spec examples/experiments/<name>.json
//! --json` output. A policy-matrix golden additionally pins the full
//! simulation report of every (device × circuit × compiler policy) cell.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_snapshots
//! ```
//!
//! then commit the diff under `tests/goldens/` (and
//! `examples/devices/`) together with the change that caused it.
//!
//! The snapshots also round-trip through `serde_json::from_str`, so the
//! deserialization path is exercised against every committed artifact.
//!
//! Note: a few model formulas use `powf`/`ln`/`exp`, whose last-bit
//! behavior follows the platform libm; the goldens pin the toolchain's
//! glibc results. If a libm update ever shifts a digit, the failure
//! message names the first drifted line — regenerate and review.

use qccd::engine::{run_spec, Engine, ExperimentSpec};
use qccd::experiments::{fig6, fig7, fig8, table1, table2, QUICK_CAPACITIES};
use qccd::sweep::policy_grid;
use qccd_circuit::generators;
use qccd_compiler::compile;
use qccd_device::{presets, Device, DeviceBuilder, Side};
use qccd_physics::PhysicalModel;
use qccd_sim::simulate;
use serde::Serialize;
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Compares `actual` against the committed golden at `rel`, or rewrites
/// the golden when `UPDATE_GOLDENS` is set.
fn check_golden(rel: &str, actual: &str) {
    let path = repo_path(rel);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("goldens live in a directory"))
            .expect("golden directory is creatable");
        std::fs::write(&path, actual).expect("golden is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden `{rel}` ({e}); regenerate with \
             `UPDATE_GOLDENS=1 cargo test --test golden_snapshots`"
        )
    });
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| i + 1)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()) + 1);
        let show = |s: &str| s.lines().nth(line - 1).unwrap_or("<missing>").to_owned();
        panic!(
            "golden `{rel}` is stale (first drift at line {line}):\n  \
             golden: {}\n  actual: {}\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDENS=1 cargo test --test golden_snapshots` and commit the diff.",
            show(&expected),
            show(actual),
        );
    }
}

/// Serializes an artifact the exact way the harness bins' `--json` flag
/// does, checks it against its golden, and round-trips it through the
/// parser.
fn pin<T>(rel: &str, artifact: &T)
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string_pretty(artifact).expect("artifacts serialize");
    check_golden(rel, &json);
    let reparsed: T = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("golden `{rel}` does not round-trip: {e}"));
    assert_eq!(
        &reparsed, artifact,
        "round trip of `{rel}` changed the artifact"
    );
}

#[test]
fn table1_matches_golden() {
    pin("tests/goldens/table1.json", &table1::generate_paper());
}

#[test]
fn table2_matches_golden() {
    pin("tests/goldens/table2.json", &table2::generate());
}

#[test]
fn fig6_quick_matches_golden() {
    pin(
        "tests/goldens/fig6_quick.json",
        &fig6::generate(&QUICK_CAPACITIES),
    );
}

#[test]
fn fig7_quick_matches_golden() {
    pin(
        "tests/goldens/fig7_quick.json",
        &fig7::generate(&QUICK_CAPACITIES),
    );
}

#[test]
fn fig8_quick_matches_golden() {
    pin(
        "tests/goldens/fig8_quick.json",
        &fig8::generate(&QUICK_CAPACITIES),
    );
}

/// Runs the committed `examples/experiments/<name>.json` spec through
/// the engine and pins the artifact exactly as
/// `run --spec <file> --json` writes it.
fn pin_spec(name: &str) {
    let rel = format!("examples/experiments/{name}.json");
    let text = std::fs::read_to_string(repo_path(&rel)).expect("spec file exists");
    let spec = ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let run = run_spec(&spec, &Engine::new()).unwrap_or_else(|e| panic!("{rel}: {e}"));
    check_golden(
        &format!("tests/goldens/{name}.json"),
        &serde_json::to_string_pretty(&run.artifact).expect("artifacts serialize"),
    );
}

#[test]
fn fig6_matches_golden() {
    pin_spec("fig6");
}

#[test]
fn fig7_matches_golden() {
    pin_spec("fig7");
}

#[test]
fn fig8_matches_golden() {
    pin_spec("fig8");
}

#[test]
fn ablation_buffer_matches_golden() {
    pin_spec("ablation_buffer");
}

#[test]
fn ablation_device_size_matches_golden() {
    pin_spec("ablation_device_size");
}

#[test]
fn ablation_heating_matches_golden() {
    pin_spec("ablation_heating");
}

#[test]
fn ablation_junction_matches_golden() {
    pin_spec("ablation_junction");
}

#[test]
fn ablation_policy_matches_golden() {
    pin_spec("ablation_policy");
}

/// Every (preset device × generator circuit × 16-policy combination)
/// cell compiled and simulated, each report pinned in canonical JSON
/// next to its cell label.
#[test]
fn policy_matrix_matches_golden() {
    let devices = [presets::l6(8), presets::g2x3(8)];
    let circuits = [
        generators::qaoa(18, 1, 3),
        generators::bv(&[true; 15]),
        generators::qft(14),
        generators::random_circuit(20, 120, 0.5, 17),
    ];
    let model = PhysicalModel::default();
    let mut cells = Vec::new();
    for device in &devices {
        for circuit in &circuits {
            for config in policy_grid(2) {
                let cell = format!(
                    "{} × {} × {}",
                    device.name(),
                    circuit.name(),
                    config.policy_label()
                );
                let exe = compile(circuit, device, &config)
                    .unwrap_or_else(|e| panic!("{cell}: compile failed: {e}"));
                let report = simulate(&exe, device, &model)
                    .unwrap_or_else(|e| panic!("{cell}: simulate failed: {e}"));
                cells.push(serde_json::json!({ "cell": cell, "report": report }));
            }
        }
    }
    check_golden(
        "tests/goldens/policy_matrix.json",
        &serde_json::to_string_pretty(&cells).expect("reports serialize"),
    );
}

/// The checked-in example device file is the serialization of the
/// paper's L6 device at capacity 20; loading it must reproduce the
/// preset exactly, and the toolflow must behave identically on both.
#[test]
fn example_device_file_loads_and_matches_the_preset() {
    let rel = "examples/devices/l6_cap20.json";
    let preset = presets::l6(20);
    check_golden(
        rel,
        &serde_json::to_string_pretty(&preset).expect("serializes"),
    );

    let text = std::fs::read_to_string(repo_path(rel)).expect("example device file exists");
    let loaded: Device = serde_json::from_str(&text).expect("example device file parses");
    assert_eq!(loaded, preset);
    let validated = Device::from_json(&text).expect("example device file validates");
    assert_eq!(validated, preset);

    // Same end-to-end behavior: compile + simulate a benchmark on the
    // JSON-loaded device and on the preset-built equivalent.
    let circuit = generators::qaoa(24, 1, 5);
    let from_file = qccd::Toolflow::new(loaded, PhysicalModel::default())
        .run(&circuit)
        .expect("fits");
    let from_preset = qccd::Toolflow::new(preset, PhysicalModel::default())
        .run(&circuit)
        .expect("fits");
    assert_eq!(from_file, from_preset);
}

/// A topology the presets cannot express (three traps around a Y
/// junction): pinned as a second example file and loadable end to end.
#[test]
fn example_t3_device_file_loads_and_runs() {
    let rel = "examples/devices/t3_y_junction.json";
    let mut b = DeviceBuilder::new("T3");
    let t0 = b.add_trap(16);
    let t1 = b.add_trap(16);
    let t2 = b.add_trap(16);
    let j = b.add_junction();
    b.connect((t0, Side::Right), j, 2).expect("fresh port");
    b.connect((t1, Side::Right), j, 2).expect("fresh port");
    b.connect((t2, Side::Left), j, 2).expect("fresh port");
    let built = b.build().expect("valid topology");
    check_golden(
        rel,
        &serde_json::to_string_pretty(&built).expect("serializes"),
    );

    let text = std::fs::read_to_string(repo_path(rel)).expect("example device file exists");
    let loaded = Device::from_json(&text).expect("example device file validates");
    assert_eq!(loaded, built);
    assert_eq!(loaded.junction_count(), 1);

    let report = qccd::Toolflow::new(loaded, PhysicalModel::default())
        .run(&generators::qaoa(24, 1, 3))
        .expect("fits on 48 slots");
    assert!(report.fidelity() > 0.0);
}

/// The committed experiment-spec files are the serializations of the
/// preset `ExperimentSpec` constructors — the declarative form of every
/// paper artifact. Pinned golden-style (regenerate with
/// `UPDATE_GOLDENS=1`), and each must round-trip through the parser to
/// the exact preset.
#[test]
fn example_experiment_specs_match_the_presets() {
    use qccd::experiments::PAPER_CAPACITIES;
    let base = qccd_compiler::CompilerConfig::default();
    for (rel, spec) in [
        ("examples/experiments/table1.json", ExperimentSpec::table1()),
        ("examples/experiments/table2.json", ExperimentSpec::table2()),
        (
            "examples/experiments/fig6.json",
            ExperimentSpec::fig6(&PAPER_CAPACITIES),
        ),
        (
            "examples/experiments/fig7.json",
            ExperimentSpec::fig7(&PAPER_CAPACITIES),
        ),
        (
            "examples/experiments/fig8.json",
            ExperimentSpec::fig8(&PAPER_CAPACITIES),
        ),
        (
            "examples/experiments/ablation_buffer.json",
            ExperimentSpec::ablation_buffer(&base),
        ),
        (
            "examples/experiments/ablation_heating.json",
            ExperimentSpec::ablation_heating(&PAPER_CAPACITIES, &base),
        ),
        (
            "examples/experiments/ablation_junction.json",
            ExperimentSpec::ablation_junction(&base),
        ),
        (
            "examples/experiments/ablation_device_size.json",
            ExperimentSpec::ablation_device_size(&base),
        ),
        (
            "examples/experiments/ablation_policy.json",
            ExperimentSpec::ablation_policy(base.buffer_slots),
        ),
    ] {
        check_golden(
            rel,
            &serde_json::to_string_pretty(&spec).expect("specs serialize"),
        );
        let text = std::fs::read_to_string(repo_path(rel)).expect("spec file exists");
        let loaded = ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert_eq!(loaded, spec, "{rel} does not round-trip to its preset");
    }
}

/// The hand-written compact device example loads to the same device as
/// the full-shape example (and the preset both serialize).
#[test]
fn example_compact_device_file_matches_the_preset() {
    let text = std::fs::read_to_string(repo_path("examples/devices/l6_cap20_compact.json"))
        .expect("compact example exists");
    let loaded = Device::from_json(&text).expect("compact example loads");
    assert_eq!(loaded, presets::l6(20));
}

/// The figure goldens must themselves be loadable as `Figure`s from
/// disk — the consumer-side contract for anyone plotting the dumps.
#[test]
fn committed_goldens_parse_from_disk() {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        return; // files may be mid-rewrite in this mode
    }
    for rel in [
        "tests/goldens/fig6_quick.json",
        "tests/goldens/fig7_quick.json",
        "tests/goldens/fig8_quick.json",
    ] {
        let text = std::fs::read_to_string(repo_path(rel)).expect("golden exists");
        let fig: qccd::experiments::Figure =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(!fig.panels.is_empty(), "{rel} has no panels");
        for panel in &fig.panels {
            assert_eq!(
                panel.x.len(),
                QUICK_CAPACITIES.len(),
                "{rel} panel {}",
                panel.id
            );
        }
    }
    for rel in ["tests/goldens/table1.json", "tests/goldens/table2.json"] {
        let text = std::fs::read_to_string(repo_path(rel)).expect("golden exists");
        let table: qccd::experiments::Table =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(!table.rows.is_empty(), "{rel} has no rows");
    }
}
