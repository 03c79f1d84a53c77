//! The declarative experiment description: axes + projection.
//!
//! An [`ExperimentSpec`] is a JSON-loadable description of a design-space
//! study: which circuits, devices, trap capacities, compiler-policy
//! combinations and physical models to evaluate, and which projection
//! turns the evaluated grid into a paper artifact. The paper's six
//! artifacts (Tables I–II, Figs. 6–8, the ablation studies) are preset
//! constructors on this type; custom studies are JSON files:
//!
//! ```json
//! {
//!   "name": "my-study",
//!   "projection": "cells",
//!   "circuits": ["qft", "bv"],
//!   "capacities": [14, 22, 30],
//!   "devices": [{"preset": "l6"}, {"file": "examples/devices/t3_y_junction.json"}],
//!   "configs": [{"routing": "lookahead-congestion"}, "policy-grid"],
//!   "models": ["default", {"gate": "AM2"}]
//! }
//! ```
//!
//! [`ExperimentSpec::expand`] resolves the axes into a deduplicated
//! [`JobGrid`]; [`crate::engine::run_spec`] executes it and applies the
//! projection.

use super::grid::JobGrid;
use qccd_circuit::generators::Benchmark;
use qccd_circuit::Circuit;
use qccd_compiler::{CompilerConfig, EvictionKind, MappingKind, ReorderMethod, RoutingKind};
use qccd_device::{presets, Device};
use qccd_physics::{GateImpl, HeatingModel, PhysicalModel, ShuttleTimes};
use serde::{de, DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Error from loading or expanding an [`ExperimentSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec text is not valid JSON or not spec-shaped.
    Parse(String),
    /// A referenced file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error text.
        message: String,
    },
    /// The spec is well-formed but describes an invalid study
    /// (unknown preset family, zero-sized device, invalid model, …).
    Invalid(String),
    /// [`crate::engine::merge_spec`] found no cached outcome for these
    /// job ids: not every shard of the study has run (to completion)
    /// against the shared cache yet.
    IncompleteCache {
        /// Ids of the jobs with no cached outcome, in grid job order.
        missing: Vec<String>,
    },
}

/// Renders the shared "missing N job(s): a, b, … (run the remaining
/// shards …)" message used by both [`SpecError::IncompleteCache`] and
/// [`crate::engine::MergeError::Incomplete`], so the library and CLI
/// spellings cannot drift apart.
pub(crate) fn fmt_missing_jobs<'a>(
    f: &mut fmt::Formatter<'_>,
    missing: impl ExactSizeIterator<Item = &'a str>,
) -> fmt::Result {
    const SHOWN: usize = 10;
    let total = missing.len();
    write!(f, "the result cache is missing {total} job(s): ")?;
    for (k, id) in missing.take(SHOWN).enumerate() {
        if k > 0 {
            write!(f, ", ")?;
        }
        f.write_str(id)?;
    }
    if total > SHOWN {
        write!(f, ", … and {} more", total - SHOWN)?;
    }
    write!(f, " (run the remaining shards against this cache first)")
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(m) => write!(f, "experiment spec parse error: {m}"),
            SpecError::Io { path, message } => write!(f, "{path}: {message}"),
            SpecError::Invalid(m) => write!(f, "invalid experiment spec: {m}"),
            SpecError::IncompleteCache { missing } => {
                write!(f, "cannot merge: ")?;
                fmt_missing_jobs(f, missing.iter().map(String::as_str))
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn read_file(path: &str) -> Result<String, SpecError> {
    std::fs::read_to_string(path).map_err(|e| SpecError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })
}

/// One entry of the circuit axis.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSpec {
    /// A Table II benchmark at its paper size (JSON: the bare name,
    /// e.g. `"qft"`).
    Benchmark(Benchmark),
    /// A circuit parsed from an OpenQASM 2.0 file
    /// (JSON: `{"qasm": "path/to/file.qasm"}`).
    Qasm {
        /// Path to the QASM source.
        path: String,
    },
}

impl CircuitSpec {
    /// Builds the concrete circuit.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Io`] for an unreadable QASM file and
    /// [`SpecError::Invalid`] for one that does not parse.
    pub fn resolve(&self) -> Result<Circuit, SpecError> {
        match self {
            CircuitSpec::Benchmark(b) => Ok(b.build()),
            CircuitSpec::Qasm { path } => {
                let text = read_file(path)?;
                qccd_circuit::qasm::parse(&text)
                    .map_err(|e| SpecError::Invalid(format!("{path}: {e}")))
            }
        }
    }
}

impl Serialize for CircuitSpec {
    fn to_value(&self) -> Value {
        match self {
            CircuitSpec::Benchmark(b) => Value::Str(b.name().to_owned()),
            CircuitSpec::Qasm { path } => {
                Value::Object(vec![("qasm".to_owned(), Value::Str(path.clone()))])
            }
        }
    }
}

impl Deserialize for CircuitSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(name) => name
                .parse::<Benchmark>()
                .map(CircuitSpec::Benchmark)
                .map_err(|e| DeError::custom(e.to_string())),
            Value::Object(entries) => match single_key(entries, "CircuitSpec")? {
                ("qasm", Value::Str(path)) => Ok(CircuitSpec::Qasm { path: path.clone() }),
                ("qasm", other) => Err(DeError::type_mismatch("a QASM file path", other)),
                (key, _) => Err(DeError::custom(format!(
                    "unknown circuit spec key `{key}` (expected a benchmark name or `qasm`)"
                ))),
            },
            other => Err(DeError::type_mismatch(
                "a benchmark name or {\"qasm\": path}",
                other,
            )),
        }
    }
}

/// One entry of the device axis.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceSpec {
    /// A paper preset family: `"l6"` or `"g2x3"`. With a fixed
    /// `capacity` it resolves to one device; without, it expands to one
    /// device per entry of the spec's `capacities` axis
    /// (JSON: `{"preset": "l6"}` or `{"preset": "l6", "capacity": 20}`).
    Preset {
        /// Family name (case-insensitive).
        family: String,
        /// Fixed trap capacity, or `None` to sweep the capacities axis.
        capacity: Option<u32>,
    },
    /// A linear device with `traps` traps
    /// (JSON: `{"linear": {"traps": 6, "capacity": 20, "spacing": 4}}`;
    /// `spacing` optional).
    Linear {
        /// Number of traps.
        traps: u32,
        /// Per-trap ion capacity.
        capacity: u32,
        /// Unit segments between adjacent traps.
        spacing: u32,
    },
    /// A grid device
    /// (JSON: `{"grid": {"rows": 2, "cols": 3, "capacity": 20}}`;
    /// `stub`/`link` optional).
    Grid {
        /// Trap rows.
        rows: u32,
        /// Trap columns (≥ 2).
        cols: u32,
        /// Per-trap ion capacity.
        capacity: u32,
        /// Trap-to-junction segment length.
        stub: u32,
        /// Junction-to-junction segment length.
        link: u32,
    },
    /// A JSON device file (full serialized shape or the compact
    /// `{name, traps, capacity, edges}` shape). With a non-empty
    /// `capacities` axis the loaded topology is rescaled to each
    /// capacity; otherwise it is used as loaded
    /// (JSON: `{"file": "examples/devices/l6_cap20.json"}`).
    File {
        /// Path to the device description.
        path: String,
    },
}

impl DeviceSpec {
    /// Resolves this entry into concrete devices, expanding
    /// capacity-parametric entries over `capacities`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for unknown families or
    /// unbuildable shapes and [`SpecError::Io`] for unreadable files.
    pub fn expand(&self, capacities: &[u32]) -> Result<Vec<Device>, SpecError> {
        match self {
            DeviceSpec::Preset { family, capacity } => {
                let build: fn(u32) -> Device = match family.to_ascii_lowercase().as_str() {
                    "l6" => presets::l6,
                    "g2x3" => presets::g2x3,
                    other => {
                        return Err(SpecError::Invalid(format!(
                            "unknown device preset family `{other}` (accepted: l6, g2x3)"
                        )))
                    }
                };
                match capacity {
                    Some(c) if *c > 0 => Ok(vec![build(*c)]),
                    Some(c) => Err(SpecError::Invalid(format!(
                        "preset `{family}` capacity must be positive, got {c}"
                    ))),
                    None if capacities.is_empty() => Err(SpecError::Invalid(format!(
                        "preset `{family}` has no fixed capacity and the spec has no \
                         `capacities` axis to sweep"
                    ))),
                    None => {
                        if let Some(&bad) = capacities.iter().find(|&&c| c == 0) {
                            return Err(SpecError::Invalid(format!(
                                "capacities axis contains {bad}; capacities must be positive"
                            )));
                        }
                        Ok(capacities.iter().map(|&c| build(c)).collect())
                    }
                }
            }
            DeviceSpec::Linear {
                traps,
                capacity,
                spacing,
            } => {
                if *traps == 0 || *capacity == 0 || *spacing == 0 {
                    return Err(SpecError::Invalid(format!(
                        "linear device needs positive traps/capacity/spacing, \
                         got {traps}/{capacity}/{spacing}"
                    )));
                }
                Ok(vec![presets::linear(*traps, *capacity, *spacing)])
            }
            DeviceSpec::Grid {
                rows,
                cols,
                capacity,
                stub,
                link,
            } => {
                if *rows == 0 || *cols < 2 || *capacity == 0 || *stub == 0 || *link == 0 {
                    return Err(SpecError::Invalid(format!(
                        "grid device needs rows ≥ 1, cols ≥ 2 and positive \
                         capacity/stub/link, got {rows}x{cols} cap {capacity} \
                         stub {stub} link {link}"
                    )));
                }
                Ok(vec![presets::grid(*rows, *cols, *capacity, *stub, *link)])
            }
            DeviceSpec::File { path } => {
                let text = read_file(path)?;
                let template = Device::from_json(&text)
                    .map_err(|e| SpecError::Invalid(format!("{path}: {e}")))?;
                if capacities.is_empty() {
                    Ok(vec![template])
                } else {
                    if let Some(&bad) = capacities.iter().find(|&&c| c == 0) {
                        return Err(SpecError::Invalid(format!(
                            "capacities axis contains {bad}; capacities must be positive"
                        )));
                    }
                    Ok(capacities
                        .iter()
                        .map(|&c| template.with_uniform_capacity(c))
                        .collect())
                }
            }
        }
    }
}

impl Serialize for DeviceSpec {
    fn to_value(&self) -> Value {
        match self {
            DeviceSpec::Preset { family, capacity } => {
                let mut entries = vec![("preset".to_owned(), Value::Str(family.clone()))];
                if let Some(c) = capacity {
                    entries.push(("capacity".to_owned(), Value::UInt(u64::from(*c))));
                }
                Value::Object(entries)
            }
            DeviceSpec::Linear {
                traps,
                capacity,
                spacing,
            } => nested_object(
                "linear",
                vec![
                    ("traps", u64::from(*traps)),
                    ("capacity", u64::from(*capacity)),
                    ("spacing", u64::from(*spacing)),
                ],
            ),
            DeviceSpec::Grid {
                rows,
                cols,
                capacity,
                stub,
                link,
            } => nested_object(
                "grid",
                vec![
                    ("rows", u64::from(*rows)),
                    ("cols", u64::from(*cols)),
                    ("capacity", u64::from(*capacity)),
                    ("stub", u64::from(*stub)),
                    ("link", u64::from(*link)),
                ],
            ),
            DeviceSpec::File { path } => {
                Value::Object(vec![("file".to_owned(), Value::Str(path.clone()))])
            }
        }
    }
}

fn nested_object(key: &str, fields: Vec<(&str, u64)>) -> Value {
    Value::Object(vec![(
        key.to_owned(),
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), Value::UInt(v)))
                .collect(),
        ),
    )])
}

impl Deserialize for DeviceSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = de::object(value, "DeviceSpec")?;
        if let Some(family) = entries.iter().find(|(k, _)| k == "preset") {
            reject_unknown(entries, &["preset", "capacity"], "device spec")?;
            let family = String::from_value(&family.1)?;
            let capacity = opt_field::<u32>(entries, "capacity")?;
            return Ok(DeviceSpec::Preset { family, capacity });
        }
        match single_key(entries, "DeviceSpec")? {
            ("linear", inner) => {
                let inner = de::object(inner, "linear device spec")?;
                reject_unknown(inner, &["traps", "capacity", "spacing"], "linear device")?;
                Ok(DeviceSpec::Linear {
                    traps: req_field(inner, "traps", "linear device")?,
                    capacity: req_field(inner, "capacity", "linear device")?,
                    spacing: opt_field(inner, "spacing")?
                        .unwrap_or(presets::DEFAULT_LINEAR_SPACING),
                })
            }
            ("grid", inner) => {
                let inner = de::object(inner, "grid device spec")?;
                reject_unknown(
                    inner,
                    &["rows", "cols", "capacity", "stub", "link"],
                    "grid device",
                )?;
                Ok(DeviceSpec::Grid {
                    rows: req_field(inner, "rows", "grid device")?,
                    cols: req_field(inner, "cols", "grid device")?,
                    capacity: req_field(inner, "capacity", "grid device")?,
                    stub: opt_field(inner, "stub")?.unwrap_or(presets::DEFAULT_GRID_STUB),
                    link: opt_field(inner, "link")?.unwrap_or(presets::DEFAULT_GRID_LINK),
                })
            }
            ("file", Value::Str(path)) => Ok(DeviceSpec::File { path: path.clone() }),
            ("file", other) => Err(DeError::type_mismatch("a device file path", other)),
            (key, _) => Err(DeError::custom(format!(
                "unknown device spec key `{key}` (expected preset, linear, grid or file)"
            ))),
        }
    }
}

/// One entry of the compiler-config axis.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigSpec {
    /// One pipeline selection (JSON: a partial [`CompilerConfig`]
    /// object — every field optional, paper defaults fill the rest,
    /// e.g. `{"routing": "lookahead-congestion"}`).
    Config(CompilerConfig),
    /// Every combination of the compiler's built-in policies — the 16
    /// pipelines of [`crate::sweep::policy_grid`]
    /// (JSON: `"policy-grid"` or
    /// `{"policy_grid": {"buffer_slots": 2}}`).
    PolicyGrid {
        /// Mapping buffer slots shared by all 16 configs.
        buffer_slots: u32,
    },
}

impl ConfigSpec {
    /// Resolves this entry into concrete compiler configurations.
    pub fn expand(&self) -> Vec<CompilerConfig> {
        match self {
            ConfigSpec::Config(c) => vec![*c],
            ConfigSpec::PolicyGrid { buffer_slots } => crate::sweep::policy_grid(*buffer_slots),
        }
    }
}

impl Serialize for ConfigSpec {
    fn to_value(&self) -> Value {
        match self {
            ConfigSpec::Config(c) => c.to_value(),
            ConfigSpec::PolicyGrid { buffer_slots } => Value::Object(vec![(
                "policy_grid".to_owned(),
                Value::Object(vec![(
                    "buffer_slots".to_owned(),
                    Value::UInt(u64::from(*buffer_slots)),
                )]),
            )]),
        }
    }
}

impl Deserialize for ConfigSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if normalized(s) == "policygrid" => {
                Ok(ConfigSpec::PolicyGrid { buffer_slots: 2 })
            }
            Value::Str(s) => Err(DeError::custom(format!(
                "unknown config spec `{s}` (expected `policy-grid` or a config object)"
            ))),
            Value::Object(entries) => {
                if entries.iter().any(|(k, _)| k == "policy_grid") {
                    let (_, inner) = single_key(entries, "ConfigSpec")?;
                    let inner = de::object(inner, "policy_grid")?;
                    reject_unknown(inner, &["buffer_slots"], "policy_grid")?;
                    return Ok(ConfigSpec::PolicyGrid {
                        buffer_slots: opt_field(inner, "buffer_slots")?.unwrap_or(2),
                    });
                }
                // A partial compiler config: every field optional, the
                // paper's pipeline filling the gaps.
                reject_unknown(
                    entries,
                    &["mapping", "routing", "reorder", "eviction", "buffer_slots"],
                    "compiler config spec",
                )?;
                let defaults = CompilerConfig::default();
                Ok(ConfigSpec::Config(CompilerConfig {
                    mapping: opt_field::<MappingKind>(entries, "mapping")?
                        .unwrap_or(defaults.mapping),
                    routing: opt_field::<RoutingKind>(entries, "routing")?
                        .unwrap_or(defaults.routing),
                    reorder: opt_field::<ReorderMethod>(entries, "reorder")?
                        .unwrap_or(defaults.reorder),
                    eviction: opt_field::<EvictionKind>(entries, "eviction")?
                        .unwrap_or(defaults.eviction),
                    buffer_slots: opt_field::<u32>(entries, "buffer_slots")?
                        .unwrap_or(defaults.buffer_slots),
                }))
            }
            other => Err(DeError::type_mismatch(
                "a compiler config object or `policy-grid`",
                other,
            )),
        }
    }
}

/// One entry of the physical-model axis.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// The paper's default model (FM gates, Table I shuttle times;
    /// JSON: `"default"`).
    Default,
    /// The default model with a different two-qubit gate implementation
    /// (JSON: `{"gate": "AM2"}`).
    Gate(GateImpl),
    /// A model loaded from a JSON file (JSON: `{"file": "m.json"}`).
    File {
        /// Path to the model description.
        path: String,
    },
    /// A fully inline model (JSON: `{"model": {...}}` with the full
    /// serialized [`PhysicalModel`] shape).
    Inline(PhysicalModel),
}

impl ModelSpec {
    /// Resolves the concrete physical model, validating file/inline
    /// descriptions.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Io`] for unreadable files and
    /// [`SpecError::Invalid`] for implausible models.
    pub fn resolve(&self) -> Result<PhysicalModel, SpecError> {
        match self {
            ModelSpec::Default => Ok(PhysicalModel::default()),
            ModelSpec::Gate(g) => Ok(PhysicalModel::with_gate(*g)),
            ModelSpec::File { path } => {
                let text = read_file(path)?;
                PhysicalModel::from_json(&text)
                    .map_err(|e| SpecError::Invalid(format!("{path}: {e}")))
            }
            ModelSpec::Inline(m) => {
                m.validate().map_err(SpecError::Invalid)?;
                Ok(*m)
            }
        }
    }
}

impl Serialize for ModelSpec {
    fn to_value(&self) -> Value {
        match self {
            ModelSpec::Default => Value::Str("default".to_owned()),
            ModelSpec::Gate(g) => {
                Value::Object(vec![("gate".to_owned(), Value::Str(g.name().to_owned()))])
            }
            ModelSpec::File { path } => {
                Value::Object(vec![("file".to_owned(), Value::Str(path.clone()))])
            }
            ModelSpec::Inline(m) => Value::Object(vec![("model".to_owned(), m.to_value())]),
        }
    }
}

impl Deserialize for ModelSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if normalized(s) == "default" => Ok(ModelSpec::Default),
            Value::Str(s) => Err(DeError::custom(format!(
                "unknown model spec `{s}` (expected `default` or an object with \
                 gate/file/model)"
            ))),
            Value::Object(entries) => match single_key(entries, "ModelSpec")? {
                ("gate", Value::Str(name)) => name
                    .parse::<GateImpl>()
                    .map(ModelSpec::Gate)
                    .map_err(|e| DeError::custom(e.to_string())),
                ("gate", other) => Err(DeError::type_mismatch("a gate name", other)),
                ("file", Value::Str(path)) => Ok(ModelSpec::File { path: path.clone() }),
                ("file", other) => Err(DeError::type_mismatch("a model file path", other)),
                ("model", inner) => PhysicalModel::from_value(inner).map(ModelSpec::Inline),
                (key, _) => Err(DeError::custom(format!(
                    "unknown model spec key `{key}` (expected gate, file or model)"
                ))),
            },
            other => Err(DeError::type_mismatch(
                "`default` or a model spec object",
                other,
            )),
        }
    }
}

/// Which artifact a spec's evaluated grid projects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// Table I — shuttling operation times (renders `models[0]`).
    Table1,
    /// Table II — benchmark characteristics (renders the circuit axis).
    Table2,
    /// Fig. 6 — trap sizing study.
    Fig6,
    /// Fig. 7 — topology study (device axis: linear family then grid
    /// family).
    Fig7,
    /// Fig. 8 — microarchitecture study (config axis: reorders; model
    /// axis: gate implementations).
    Fig8,
    /// A1 — mapping-buffer ablation (config axis: buffer slots).
    BufferAblation,
    /// A2 — heating-model ablation (model axis: heating variants).
    HeatingAblation,
    /// A3 — junction-cost sensitivity (model axis: junction-time
    /// multipliers; device axis: linear vs grid).
    JunctionAblation,
    /// A4 — device-size sweep (device axis: trap counts).
    DeviceSizeAblation,
    /// A5 — compiler policy-pipeline matrix (config axis: the 16
    /// pipelines).
    PolicyAblation,
    /// Generic per-cell listing: one table row per grid cell.
    Cells,
}

impl Projection {
    /// Every projection, for error messages and docs.
    pub const ALL: [Projection; 11] = [
        Projection::Table1,
        Projection::Table2,
        Projection::Fig6,
        Projection::Fig7,
        Projection::Fig8,
        Projection::BufferAblation,
        Projection::HeatingAblation,
        Projection::JunctionAblation,
        Projection::DeviceSizeAblation,
        Projection::PolicyAblation,
        Projection::Cells,
    ];

    /// Kebab-case name (the JSON spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Projection::Table1 => "table1",
            Projection::Table2 => "table2",
            Projection::Fig6 => "fig6",
            Projection::Fig7 => "fig7",
            Projection::Fig8 => "fig8",
            Projection::BufferAblation => "buffer-ablation",
            Projection::HeatingAblation => "heating-ablation",
            Projection::JunctionAblation => "junction-ablation",
            Projection::DeviceSizeAblation => "device-size-ablation",
            Projection::PolicyAblation => "policy-ablation",
            Projection::Cells => "cells",
        }
    }

    fn accepted() -> String {
        Projection::ALL
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Projection {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let key = normalized(s);
        Projection::ALL
            .iter()
            .find(|p| normalized(p.name()) == key)
            .copied()
            .ok_or_else(|| {
                format!(
                    "unknown projection `{s}` (accepted: {})",
                    Projection::accepted()
                )
            })
    }
}

impl Serialize for Projection {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_owned())
    }
}

impl Deserialize for Projection {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => s.parse().map_err(DeError::custom),
            other => Err(DeError::type_mismatch("a projection name", other)),
        }
    }
}

/// A declarative design-space study: axes plus a projection.
///
/// See the [module docs](self) for the JSON shape, and the preset
/// constructors ([`ExperimentSpec::fig6`] etc.) for the paper's own
/// studies.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Study name (used in progress output and file naming).
    pub name: String,
    /// How the evaluated grid becomes an artifact.
    pub projection: Projection,
    /// The circuit axis.
    pub circuits: Vec<CircuitSpec>,
    /// The trap-capacity axis (consumed by capacity-parametric device
    /// specs).
    pub capacities: Vec<u32>,
    /// The device axis (entries expand in order; see [`DeviceSpec`]).
    pub devices: Vec<DeviceSpec>,
    /// The compiler-config axis.
    pub configs: Vec<ConfigSpec>,
    /// The physical-model axis.
    pub models: Vec<ModelSpec>,
}

impl ExperimentSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] with the parser's line/column or
    /// the offending field for malformed input.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))
    }

    /// Loads a spec from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Io`] if the file is unreadable, else as
    /// [`ExperimentSpec::from_json`].
    pub fn from_file(path: impl AsRef<Path>) -> Result<ExperimentSpec, SpecError> {
        let path = path.as_ref();
        let text = read_file(&path.display().to_string())?;
        // Prefix the message with the path, keeping the variant (and
        // so its "parse error"/"invalid" label) exactly once.
        Self::from_json(&text).map_err(|e| match e {
            SpecError::Parse(m) => SpecError::Parse(format!("{}: {m}", path.display())),
            SpecError::Invalid(m) => SpecError::Invalid(format!("{}: {m}", path.display())),
            other => other,
        })
    }

    /// Resolves every axis and enumerates the deduplicated job grid.
    ///
    /// # Errors
    ///
    /// Propagates resolution failures from the axis specs.
    pub fn expand(&self) -> Result<JobGrid, SpecError> {
        // Resolve each *distinct* circuit spec once — parsing a QASM
        // benchmark is itself hundreds of microseconds, so duplicate
        // axis entries (and re-expansions) clone instead of re-parsing.
        // A sorted Vec keyed by the spec's serialized form keeps the
        // dedup deterministic; the axis keeps its declared shape.
        let mut resolved: Vec<(String, Circuit)> = Vec::new();
        let mut circuits = Vec::with_capacity(self.circuits.len());
        for c in &self.circuits {
            // qccd-lint: allow(engine-panic, panic-discipline) — serializing plain data structs cannot fail
            let key = serde_json::to_string(c).expect("circuit specs serialize");
            match resolved.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
                Ok(pos) => circuits.push(resolved[pos].1.clone()),
                Err(pos) => {
                    let circuit = c.resolve()?;
                    resolved.insert(pos, (key, circuit.clone()));
                    circuits.push(circuit);
                }
            }
        }
        let parses = resolved.len();
        let mut devices = Vec::new();
        for d in &self.devices {
            devices.extend(d.expand(&self.capacities)?);
        }
        let configs: Vec<CompilerConfig> =
            self.configs.iter().flat_map(ConfigSpec::expand).collect();
        let models = self
            .models
            .iter()
            .map(ModelSpec::resolve)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(JobGrid::from_axes(circuits, devices, configs, models).with_parses(parses))
    }

    // ------------------------------------------------------------------
    // Preset constructors: the paper's six artifacts.
    // ------------------------------------------------------------------

    /// All six Table II benchmarks as circuit specs.
    fn paper_circuits() -> Vec<CircuitSpec> {
        Benchmark::ALL
            .iter()
            .map(|&b| CircuitSpec::Benchmark(b))
            .collect()
    }

    /// Table I — shuttling operation times.
    pub fn table1() -> ExperimentSpec {
        ExperimentSpec {
            name: "table1".into(),
            projection: Projection::Table1,
            circuits: vec![],
            capacities: vec![],
            devices: vec![],
            configs: vec![],
            models: vec![ModelSpec::Default],
        }
    }

    /// Table II — benchmark suite characteristics.
    pub fn table2() -> ExperimentSpec {
        ExperimentSpec {
            name: "table2".into(),
            projection: Projection::Table2,
            circuits: Self::paper_circuits(),
            capacities: vec![],
            devices: vec![],
            configs: vec![],
            models: vec![],
        }
    }

    /// Fig. 6 — trap sizing on L6 with FM gates and GS reordering.
    pub fn fig6(capacities: &[u32]) -> ExperimentSpec {
        ExperimentSpec {
            name: "fig6".into(),
            projection: Projection::Fig6,
            circuits: Self::paper_circuits(),
            capacities: capacities.to_vec(),
            devices: vec![DeviceSpec::Preset {
                family: "l6".into(),
                capacity: None,
            }],
            configs: vec![ConfigSpec::Config(CompilerConfig::default())],
            models: vec![ModelSpec::Gate(GateImpl::Fm)],
        }
    }

    /// Fig. 7 — L6 vs G2x3 topology comparison.
    pub fn fig7(capacities: &[u32]) -> ExperimentSpec {
        ExperimentSpec {
            name: "fig7".into(),
            projection: Projection::Fig7,
            circuits: Self::paper_circuits(),
            capacities: capacities.to_vec(),
            devices: vec![
                DeviceSpec::Preset {
                    family: "l6".into(),
                    capacity: None,
                },
                DeviceSpec::Preset {
                    family: "g2x3".into(),
                    capacity: None,
                },
            ],
            configs: vec![ConfigSpec::Config(CompilerConfig::default())],
            models: vec![ModelSpec::Gate(GateImpl::Fm)],
        }
    }

    /// Fig. 8 — 4 gate implementations × 2 reorder methods on L6.
    pub fn fig8(capacities: &[u32]) -> ExperimentSpec {
        ExperimentSpec {
            name: "fig8".into(),
            projection: Projection::Fig8,
            circuits: Self::paper_circuits(),
            capacities: capacities.to_vec(),
            devices: vec![DeviceSpec::Preset {
                family: "l6".into(),
                capacity: None,
            }],
            configs: ReorderMethod::ALL
                .iter()
                .map(|&r| ConfigSpec::Config(CompilerConfig::with_reorder(r)))
                .collect(),
            models: GateImpl::ALL.iter().map(|&g| ModelSpec::Gate(g)).collect(),
        }
    }

    /// A1 — mapping-buffer ablation (Supremacy on L6 at capacity 20,
    /// 0–4 reserved slots), compiling with `base`'s policies.
    pub fn ablation_buffer(base: &CompilerConfig) -> ExperimentSpec {
        ExperimentSpec {
            name: "ablation-a1-buffer".into(),
            projection: Projection::BufferAblation,
            circuits: vec![CircuitSpec::Benchmark(Benchmark::Supremacy)],
            capacities: vec![],
            devices: vec![DeviceSpec::Preset {
                family: "l6".into(),
                capacity: Some(20),
            }],
            configs: (0..=4)
                .map(|buffer_slots| {
                    ConfigSpec::Config(CompilerConfig {
                        buffer_slots,
                        ..*base
                    })
                })
                .collect(),
            models: vec![ModelSpec::Default],
        }
    }

    /// A2 — scaled-k₁ vs constant-k₁ heating (Supremacy across trap
    /// capacities), compiling with `base`'s policies.
    pub fn ablation_heating(capacities: &[u32], base: &CompilerConfig) -> ExperimentSpec {
        ExperimentSpec {
            name: "ablation-a2-heating".into(),
            projection: Projection::HeatingAblation,
            circuits: vec![CircuitSpec::Benchmark(Benchmark::Supremacy)],
            capacities: capacities.to_vec(),
            devices: vec![DeviceSpec::Preset {
                family: "l6".into(),
                capacity: None,
            }],
            configs: vec![ConfigSpec::Config(*base)],
            models: vec![
                ModelSpec::Default,
                ModelSpec::Inline(PhysicalModel {
                    heating: HeatingModel::CONSTANT_K1,
                    ..PhysicalModel::default()
                }),
            ],
        }
    }

    /// A3 — junction-crossing-cost sensitivity (SquareRoot at capacity
    /// 20, linear vs grid, Table I junction times ×1/×2/×4/×8),
    /// compiling with `base`'s policies.
    pub fn ablation_junction(base: &CompilerConfig) -> ExperimentSpec {
        ExperimentSpec {
            name: "ablation-a3-junction".into(),
            projection: Projection::JunctionAblation,
            circuits: vec![CircuitSpec::Benchmark(Benchmark::SquareRoot)],
            capacities: vec![],
            devices: vec![
                DeviceSpec::Preset {
                    family: "l6".into(),
                    capacity: Some(20),
                },
                DeviceSpec::Preset {
                    family: "g2x3".into(),
                    capacity: Some(20),
                },
            ],
            configs: vec![ConfigSpec::Config(*base)],
            models: [1u32, 2, 4, 8]
                .iter()
                .map(|&factor| {
                    ModelSpec::Inline(PhysicalModel {
                        shuttle: ShuttleTimes {
                            junction_x: ShuttleTimes::TABLE_I.junction_x * f64::from(factor),
                            junction_y: ShuttleTimes::TABLE_I.junction_y * f64::from(factor),
                            ..ShuttleTimes::TABLE_I
                        },
                        ..PhysicalModel::default()
                    })
                })
                .collect(),
        }
    }

    /// A4 — device-size sweep (QFT on linear devices of 3–10 traps at
    /// capacity 25), compiling with `base`'s policies.
    pub fn ablation_device_size(base: &CompilerConfig) -> ExperimentSpec {
        ExperimentSpec {
            name: "ablation-a4-device-size".into(),
            projection: Projection::DeviceSizeAblation,
            circuits: vec![CircuitSpec::Benchmark(Benchmark::Qft)],
            capacities: vec![],
            devices: [3u32, 4, 5, 6, 8, 10]
                .iter()
                .map(|&traps| DeviceSpec::Linear {
                    traps,
                    capacity: 25,
                    spacing: presets::DEFAULT_LINEAR_SPACING,
                })
                .collect(),
            configs: vec![ConfigSpec::Config(*base)],
            models: vec![ModelSpec::Default],
        }
    }

    /// A5 — compiler policy-pipeline matrix (QFT on L6 at capacities
    /// 16 and 24, all 16 policy combinations).
    pub fn ablation_policy(buffer_slots: u32) -> ExperimentSpec {
        ExperimentSpec {
            name: "ablation-a5-policy".into(),
            projection: Projection::PolicyAblation,
            circuits: vec![CircuitSpec::Benchmark(Benchmark::Qft)],
            capacities: vec![16, 24],
            devices: vec![DeviceSpec::Preset {
                family: "l6".into(),
                capacity: None,
            }],
            configs: vec![ConfigSpec::PolicyGrid { buffer_slots }],
            models: vec![ModelSpec::Default],
        }
    }
}

impl Serialize for ExperimentSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            ("projection".to_owned(), self.projection.to_value()),
            ("circuits".to_owned(), self.circuits.to_value()),
            ("capacities".to_owned(), self.capacities.to_value()),
            ("devices".to_owned(), self.devices.to_value()),
            ("configs".to_owned(), self.configs.to_value()),
            ("models".to_owned(), self.models.to_value()),
        ])
    }
}

impl Deserialize for ExperimentSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = de::object(value, "ExperimentSpec")?;
        // A dedicated message rather than the generic unknown-field one:
        // specs written while a second simulation kernel existed may
        // still pin one, and silently ignoring the field would hide that.
        if entries.iter().any(|(key, _)| key == "kernel") {
            return Err(DeError::custom(
                "field `kernel` was removed: the simulator has a single kernel; delete this field",
            ));
        }
        reject_unknown(
            entries,
            &[
                "name",
                "projection",
                "circuits",
                "capacities",
                "devices",
                "configs",
                "models",
            ],
            "experiment spec",
        )?;
        Ok(ExperimentSpec {
            name: req_field(entries, "name", "ExperimentSpec")?,
            projection: req_field(entries, "projection", "ExperimentSpec")?,
            circuits: opt_field(entries, "circuits")?.unwrap_or_default(),
            capacities: opt_field(entries, "capacities")?.unwrap_or_default(),
            devices: opt_field(entries, "devices")?.unwrap_or_default(),
            configs: opt_field(entries, "configs")?
                .unwrap_or_else(|| vec![ConfigSpec::Config(CompilerConfig::default())]),
            models: opt_field(entries, "models")?.unwrap_or_else(|| vec![ModelSpec::Default]),
        })
    }
}

// ----------------------------------------------------------------------
// Small deserialization helpers shared by the spec types.
// ----------------------------------------------------------------------

/// Lowercase with `-`/`_` removed, for spelling-insensitive keywords.
fn normalized(s: &str) -> String {
    s.chars()
        .filter(|c| *c != '-' && *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Extracts and deserializes an optional field.
fn opt_field<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
) -> Result<Option<T>, DeError> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| T::from_value(v).map_err(|e| DeError::custom(format!("field `{name}`: {e}"))))
        .transpose()
}

/// Extracts and deserializes a required field.
fn req_field<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
    ty: &str,
) -> Result<T, DeError> {
    opt_field(entries, name)?.ok_or_else(|| DeError::missing_field(ty, name))
}

/// Rejects fields outside `allowed` with a message listing them.
fn reject_unknown(
    entries: &[(String, Value)],
    allowed: &[&str],
    what: &str,
) -> Result<(), DeError> {
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(DeError::custom(format!(
                "unknown field `{key}` of {what} (fields: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Unwraps a single-entry object, for `{"kind": payload}` encodings.
fn single_key<'v>(
    entries: &'v [(String, Value)],
    ty: &str,
) -> Result<(&'v str, &'v Value), DeError> {
    match entries {
        [(key, value)] => Ok((key.as_str(), value)),
        _ => Err(DeError::custom(format!(
            "`{ty}` expects exactly one key, found {}",
            entries.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::QUICK_CAPACITIES;

    #[test]
    fn presets_round_trip_through_json() {
        let base = CompilerConfig::default();
        for spec in [
            ExperimentSpec::table1(),
            ExperimentSpec::table2(),
            ExperimentSpec::fig6(&QUICK_CAPACITIES),
            ExperimentSpec::fig7(&QUICK_CAPACITIES),
            ExperimentSpec::fig8(&QUICK_CAPACITIES),
            ExperimentSpec::ablation_buffer(&base),
            ExperimentSpec::ablation_heating(&QUICK_CAPACITIES, &base),
            ExperimentSpec::ablation_junction(&base),
            ExperimentSpec::ablation_device_size(&base),
            ExperimentSpec::ablation_policy(2),
        ] {
            let json = serde_json::to_string_pretty(&spec).unwrap();
            let back = ExperimentSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: {e}\n{json}", spec.name));
            assert_eq!(back, spec, "{} drifted through JSON", spec.name);
        }
    }

    #[test]
    fn fig6_expansion_matches_the_paper_grid() {
        let spec = ExperimentSpec::fig6(&[8, 10]);
        let grid = spec.expand().unwrap();
        assert_eq!(grid.circuits().len(), 6);
        assert_eq!(grid.devices().len(), 2);
        assert_eq!(grid.configs().len(), 1);
        assert_eq!(grid.models().len(), 1);
        assert_eq!(grid.cell_count(), 12);
        assert_eq!(grid.devices()[0].name(), "L6");
        assert_eq!(grid.devices()[0].max_trap_capacity(), 8);
        assert_eq!(grid.models()[0].gate_impl, GateImpl::Fm);
    }

    #[test]
    fn fig8_expansion_covers_reorders_and_gates() {
        let grid = ExperimentSpec::fig8(&[8]).expand().unwrap();
        assert_eq!(grid.configs().len(), 2);
        assert_eq!(grid.models().len(), 4);
        assert_eq!(grid.cell_count(), 6 * 2 * 4);
    }

    #[test]
    fn hand_authored_spec_parses_with_defaults() {
        let spec = ExperimentSpec::from_json(
            r#"{
              "name": "mini",
              "projection": "cells",
              "circuits": ["bv", {"qasm": "some.qasm"}],
              "capacities": [14],
              "devices": [{"preset": "L6"},
                          {"linear": {"traps": 4, "capacity": 10}},
                          {"grid": {"rows": 2, "cols": 3, "capacity": 8}}]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.circuits.len(), 2);
        assert_eq!(spec.circuits[0], CircuitSpec::Benchmark(Benchmark::Bv),);
        assert_eq!(
            spec.devices[1],
            DeviceSpec::Linear {
                traps: 4,
                capacity: 10,
                spacing: presets::DEFAULT_LINEAR_SPACING
            }
        );
        // Defaults fill the config and model axes.
        assert_eq!(
            spec.configs,
            vec![ConfigSpec::Config(CompilerConfig::default())]
        );
        assert_eq!(spec.models, vec![ModelSpec::Default]);
        // Partial configs and the policy-grid shorthand parse.
        let spec = ExperimentSpec::from_json(
            r#"{"name": "p", "projection": "cells",
                "configs": [{"routing": "LC"}, "policy-grid"]}"#,
        )
        .unwrap();
        match &spec.configs[0] {
            ConfigSpec::Config(c) => {
                assert_eq!(c.routing, RoutingKind::LookaheadCongestion);
                assert_eq!(c.buffer_slots, 2);
            }
            other => panic!("expected config, got {other:?}"),
        }
        assert_eq!(spec.configs[1], ConfigSpec::PolicyGrid { buffer_slots: 2 });
    }

    #[test]
    fn removed_kernel_field_is_rejected_by_name() {
        for kernel in ["des", "legacy"] {
            let err = ExperimentSpec::from_json(&format!(
                r#"{{"name": "k", "projection": "cells", "kernel": "{kernel}"}}"#
            ))
            .unwrap_err();
            assert!(
                err.to_string().contains(
                    "field `kernel` was removed: the simulator has a single kernel; \
                     delete this field"
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn spec_errors_are_descriptive() {
        let err = ExperimentSpec::from_json("{\"name\": \"x\"}").unwrap_err();
        assert!(err.to_string().contains("projection"), "{err}");

        let err =
            ExperimentSpec::from_json(r#"{"name": "x", "projection": "fig9000"}"#).unwrap_err();
        assert!(err.to_string().contains("fig9000"), "{err}");
        assert!(err.to_string().contains("fig6"), "{err}");

        let err =
            ExperimentSpec::from_json(r#"{"name": "x", "projection": "cells", "frobnicate": 3}"#)
                .unwrap_err();
        assert!(err.to_string().contains("frobnicate"), "{err}");

        let err = ExperimentSpec::from_json(
            r#"{"name": "x", "projection": "cells", "circuits": ["nope"]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn expansion_rejects_invalid_axes() {
        let mut spec = ExperimentSpec::fig6(&[8]);
        spec.devices = vec![DeviceSpec::Preset {
            family: "hex".into(),
            capacity: None,
        }];
        let err = spec.expand().unwrap_err();
        assert!(err.to_string().contains("hex"), "{err}");
        assert!(err.to_string().contains("l6, g2x3"), "{err}");

        let mut spec = ExperimentSpec::fig6(&[]);
        spec.capacities.clear();
        let err = spec.expand().unwrap_err();
        assert!(err.to_string().contains("capacities"), "{err}");

        let mut spec = ExperimentSpec::fig6(&[0]);
        spec.capacities = vec![0];
        assert!(spec.expand().is_err());
    }

    #[test]
    fn file_device_spec_is_fixed_without_capacities_and_swept_with() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qccd-spec-dev-{}.json", std::process::id()));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&presets::l6(17)).unwrap(),
        )
        .unwrap();
        let spec = DeviceSpec::File {
            path: path.display().to_string(),
        };
        let fixed = spec.expand(&[]).unwrap();
        assert_eq!(fixed.len(), 1);
        assert_eq!(fixed[0].max_trap_capacity(), 17);
        let swept = spec.expand(&[6, 9]).unwrap();
        assert_eq!(swept.len(), 2);
        assert_eq!(swept[1].max_trap_capacity(), 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_circuit_entries_resolve_once() {
        let circuit = generators_qaoa_as_qasm();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qccd-spec-dedup-{}.qasm", std::process::id()));
        std::fs::write(&path, &circuit).unwrap();
        let qasm = CircuitSpec::Qasm {
            path: path.display().to_string(),
        };
        let spec = ExperimentSpec {
            name: "dedup".into(),
            projection: Projection::Cells,
            circuits: vec![
                qasm.clone(),
                qasm.clone(),
                CircuitSpec::Benchmark(Benchmark::Bv),
            ],
            capacities: vec![],
            devices: vec![DeviceSpec::Preset {
                family: "l6".into(),
                capacity: Some(20),
            }],
            configs: vec![ConfigSpec::Config(CompilerConfig::default())],
            models: vec![ModelSpec::Default],
        };
        let grid = spec.expand().unwrap();
        // The axis keeps its declared shape; only the parse work dedups.
        assert_eq!(grid.circuits().len(), 3);
        assert_eq!(grid.parses(), 2, "two distinct specs behind three entries");
        assert_eq!(
            serde_json::to_string(&grid.circuits()[0]).unwrap(),
            serde_json::to_string(&grid.circuits()[1]).unwrap(),
            "duplicate entries resolve to the identical circuit"
        );
        // The engine surfaces the counter verbatim.
        let run = crate::engine::Engine::new().run(&grid);
        assert_eq!(run.stats.parses, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn qasm_circuit_spec_resolves() {
        let circuit = generators_qaoa_as_qasm();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qccd-spec-qasm-{}.qasm", std::process::id()));
        std::fs::write(&path, &circuit).unwrap();
        let spec = CircuitSpec::Qasm {
            path: path.display().to_string(),
        };
        let parsed = spec.resolve().unwrap();
        assert!(parsed.num_qubits() > 0);
        let missing = CircuitSpec::Qasm {
            path: "/nonexistent/x.qasm".into(),
        };
        assert!(matches!(missing.resolve(), Err(SpecError::Io { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn from_file_errors_name_the_path_and_label_once() {
        let dir = std::env::temp_dir();
        for (tag, text) in [
            ("malformed", r#"{"name": "m", "projection": "#),
            (
                "invalid",
                r#"{"name": "k", "projection": "cells", "kernel": "des"}"#,
            ),
        ] {
            let path = dir.join(format!("qccd-spec-{tag}-{}.json", std::process::id()));
            std::fs::write(&path, text).unwrap();
            let err = ExperimentSpec::from_file(&path).unwrap_err();
            let _ = std::fs::remove_file(&path);
            assert!(matches!(err, SpecError::Parse(_)), "{tag}: {err:?}");
            let message = err.to_string();
            let shown = path.display().to_string();
            assert_eq!(
                message.matches("experiment spec parse error").count(),
                1,
                "{tag}: {message}"
            );
            assert_eq!(
                message.matches(shown.as_str()).count(),
                1,
                "{tag}: {message}"
            );
            assert!(
                message.starts_with(&format!("experiment spec parse error: {shown}: ")),
                "{tag}: {message}"
            );
        }
    }

    fn generators_qaoa_as_qasm() -> String {
        qccd_circuit::qasm::write(&qccd_circuit::generators::qaoa(6, 1, 2))
    }
}
