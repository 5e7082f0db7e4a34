//! Tracked perf series: `repro --perf`.
//!
//! Measures a fixed 25-point BER sweep grid, the quick-grid wall time
//! of the [`PERF_FIGURES`] and the [`NET_CASES`] network deployments,
//! and **appends** each result to a JSON series file (default
//! `BENCH_sweep.json` / `BENCH_net.json` at the repo root), so future
//! changes regress against the trajectory instead of a number in a
//! commit message. `--gate` fails a run that drops more than
//! [`MAX_PERF_DROP`] below the last committed record.

use fmbs_audio::program::ProgramKind;
use fmbs_core::modem::Bitrate;
use fmbs_core::sim::cache::CacheStats;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::metric::Ber;
use fmbs_core::sim::scenario::{Scenario, Workload};
use fmbs_core::sim::sweep::SweepBuilder;
use fmbs_net::prelude::{BerTable, Deployment};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::Instant;

/// One measurement of the perf series.
///
/// Serialization is hand-written (the vendored serde derive has no
/// field defaults): committed `BENCH_sweep.json` records predate
/// `figure_wall_s`, so deserialization defaults it to empty instead of
/// erroring.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Seconds since the Unix epoch when the measurement ran.
    pub unix_time: u64,
    /// A free-form label (git describe, PR number, "baseline", ...).
    pub label: String,
    /// Points in the measured grid.
    pub grid_points: usize,
    /// Serial engine throughput.
    pub serial_points_per_sec: f64,
    /// Parallel engine throughput (equals serial on one core).
    pub parallel_points_per_sec: f64,
    /// Derivation-cache counters of the serial run.
    pub cache: CacheStats,
    /// Per-figure wall time in seconds (`(figure id, wall_s)`, the
    /// [`PERF_FIGURES`] subset at the quick grid); empty in records
    /// committed before the column existed.
    pub figure_wall_s: Vec<(String, f64)>,
}

impl Serialize for PerfRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("unix_time".into(), self.unix_time.to_value()),
            ("label".into(), self.label.to_value()),
            ("grid_points".into(), self.grid_points.to_value()),
            (
                "serial_points_per_sec".into(),
                self.serial_points_per_sec.to_value(),
            ),
            (
                "parallel_points_per_sec".into(),
                self.parallel_points_per_sec.to_value(),
            ),
            ("cache".into(), self.cache.to_value()),
            ("figure_wall_s".into(), self.figure_wall_s.to_value()),
        ])
    }
}

impl Deserialize for PerfRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(PerfRecord {
            unix_time: u64::from_value(v.get_field("unix_time")?)?,
            label: String::from_value(v.get_field("label")?)?,
            grid_points: usize::from_value(v.get_field("grid_points")?)?,
            serial_points_per_sec: f64::from_value(v.get_field("serial_points_per_sec")?)?,
            parallel_points_per_sec: f64::from_value(v.get_field("parallel_points_per_sec")?)?,
            cache: CacheStats::from_value(v.get_field("cache")?)?,
            figure_wall_s: match v.get_field("figure_wall_s") {
                Ok(f) => Vec::<(String, f64)>::from_value(f)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

/// The persisted series (newest record last).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfSeries {
    /// Measurements, oldest first.
    pub series: Vec<PerfRecord>,
}

/// The fixed 25-point BER grid the sweep series measures: five powers
/// × five distances of a 200-bit 1.6 kbps data workload on the fast
/// tier.
pub fn throughput_grid() -> SweepBuilder {
    let base = Scenario::bench(-30.0, 2.0, ProgramKind::News)
        .with_workload(Workload::data(Bitrate::Kbps1_6, 200));
    SweepBuilder::new(base)
        .powers_dbm([-20.0, -30.0, -40.0, -50.0, -60.0])
        .distances_ft([2.0, 6.0, 10.0, 14.0, 18.0])
}

/// Measures the grid (`samples` timed repetitions, best-of) and returns
/// the record, without touching disk.
pub fn measure(label: &str, samples: usize) -> PerfRecord {
    let grid = throughput_grid();
    let n_points = grid.points().len();
    let mut serial_best = f64::INFINITY;
    let mut parallel_best = f64::INFINITY;
    let mut cache = CacheStats::default();
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let results = grid.run_serial(&FastSim, &Ber);
        serial_best = serial_best.min(t.elapsed().as_secs_f64());
        cache = results.cache;
        let t = Instant::now();
        std::hint::black_box(grid.run(&FastSim, &Ber));
        parallel_best = parallel_best.min(t.elapsed().as_secs_f64());
    }
    PerfRecord {
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: label.to_string(),
        grid_points: n_points,
        serial_points_per_sec: n_points as f64 / serial_best,
        parallel_points_per_sec: n_points as f64 / parallel_best,
        cache,
        figure_wall_s: Vec::new(),
    }
}

/// Figures timed for the per-figure wall-time column of `repro --perf`:
/// a sweep-engine figure and a net-engine figure, both at the quick
/// grid, so both hot paths show up in the committed series.
pub const PERF_FIGURES: &[&str] = &["fig4a", "network_capacity"];

/// Times each [`PERF_FIGURES`] regeneration (quick grid, one run each)
/// as `(figure id, wall seconds)`.
pub fn measure_figure_walls() -> Vec<(String, f64)> {
    crate::experiments::REGISTRY
        .iter()
        .filter(|spec| PERF_FIGURES.contains(&spec.id))
        .map(|spec| {
            let t = Instant::now();
            std::hint::black_box((spec.build)(crate::experiments::Grid::Quick));
            (spec.id.to_string(), t.elapsed().as_secs_f64())
        })
        .collect()
}

/// Measures the grid and the per-figure wall-time column and appends
/// the record to the series file at `path` (created when missing;
/// unreadable or unparseable files are reported, not clobbered — the
/// trajectory is the whole point of the file).
pub fn record(path: &str, label: &str, samples: usize) -> Result<PerfRecord, String> {
    let mut rec = measure(label, samples);
    rec.figure_wall_s = measure_figure_walls();
    append_sweep(path, rec)
}

fn append_sweep(path: &str, rec: PerfRecord) -> Result<PerfRecord, String> {
    let mut series: PerfSeries = if std::path::Path::new(path).exists() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read existing {path}: {e}"))?;
        serde_json::from_str(&text)
            .map_err(|e| format!("{path} exists but is not a perf series: {e:?}"))?
    } else {
        PerfSeries::default()
    };
    series.series.push(rec.clone());
    let json = serde_json::to_string_pretty(&series).map_err(|e| format!("serialise: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(rec)
}

/// One measurement of the network-tier perf series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetPerfRecord {
    /// Seconds since the Unix epoch when the measurement ran.
    pub unix_time: u64,
    /// A free-form label (git describe, PR number, "baseline", ...).
    pub label: String,
    /// Deployed tags in the measured run.
    pub n_tags: usize,
    /// Simulated slots.
    pub n_slots: u64,
    /// Wall-clock seconds of the best run.
    pub elapsed_s: f64,
    /// tag·slot steps per second (the capacity headline).
    pub tag_slots_per_sec: f64,
    /// Packets delivered (sanity: the run did real work).
    pub delivered: u64,
}

/// The persisted network perf series (newest record last).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetPerfSeries {
    /// Measurements, oldest first.
    pub series: Vec<NetPerfRecord>,
}

/// The network series file that rides along a sweep series file:
/// `BENCH_sweep.json` → `BENCH_net.json`. Only the file name is
/// rewritten — directory components are left alone — and names without
/// "sweep" get `.net.json` appended.
pub fn net_series_path(sweep_path: &str) -> String {
    let (dir, file) = match sweep_path.rsplit_once('/') {
        Some((dir, file)) => (Some(dir), file),
        None => (None, sweep_path),
    };
    let net_file = if file.contains("sweep") {
        file.replacen("sweep", "net", 1)
    } else {
        format!("{file}.net.json")
    };
    match dir {
        Some(dir) => format!("{dir}/{net_file}"),
        None => net_file,
    }
}

/// One population of the network perf series: a deployment timed end
/// to end through [`fmbs_net::topology::CitySim::run`], its records
/// told apart inside the shared `BENCH_net.json` by label suffix. (The
/// vendored serde stand-in cannot deserialise records with unknown or
/// missing fields, so every population reuses [`NetPerfRecord`]
/// verbatim.)
#[derive(Debug)]
pub struct NetCase {
    /// Population name, as printed and gated ("network tag-slots/s").
    pub name: &'static str,
    /// Label suffix of this population's records; empty for the
    /// saturated population, which every series has held since it was
    /// first committed.
    pub suffix: &'static str,
    /// What the run exercises, printed after its size.
    pub detail: &'static str,
    /// Timed samples (best-of).
    pub samples: usize,
    /// The deployment under test. Anything it precomputes (an arrival
    /// trace) stays outside the timed region.
    pub deployment: fn() -> Deployment,
}

/// The four network perf cases of `repro --perf`, saturated first:
///
/// * the 10,000-tag × 1,000-slot acceptance-bar cell, full-buffer;
/// * the same cell trace-driven: Poisson arrivals at a moderate load
///   through the per-tag FIFO queues;
/// * the saturated cell with every fault class active and the default
///   ARQ on, so the fault and retransmission paths are all timed;
/// * 10⁶ tags × 10⁴ slots sharded across a 4×4 receiver grid with
///   capture on, on every available core (one sample: it dwarfs the
///   others).
pub const NET_CASES: [NetCase; 4] = [
    NetCase {
        name: "network",
        suffix: "",
        detail: "",
        samples: 2,
        deployment: saturated_cell,
    },
    NetCase {
        name: "workload",
        suffix: "+workload",
        detail: " (poisson trace)",
        samples: 2,
        deployment: poisson_cell,
    },
    NetCase {
        name: "faults",
        suffix: "+faults",
        detail: " (all fault classes + ARQ)",
        samples: 2,
        deployment: faulted_cell,
    },
    NetCase {
        name: "metro",
        suffix: "+metro",
        detail: " (16 cells, capture on)",
        samples: 1,
        deployment: metro_grid,
    },
];

fn saturated_cell() -> Deployment {
    Deployment::city(10_000).slots(1_000)
}

fn poisson_cell() -> Deployment {
    use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
    use fmbs_net::prelude::Traffic;
    use fmbs_workload::arrivals::TraceSpec;
    let cell = saturated_cell();
    let cfg = cell.network_config();
    let trace = TraceSpec {
        n_tags: cfg.n_tags,
        n_slots: cfg.n_slots,
        slot_secs: cfg.slot_secs(),
        model: ArrivalModel::Poisson,
        offered_load: 0.05,
        profile: AppProfile::SensorBeacon,
        seed: cfg.seed,
    }
    .generate();
    cell.traffic(Traffic::Trace(Arc::new(trace)))
}

fn faulted_cell() -> Deployment {
    use fmbs_net::prelude::{ArqConfig, FaultSpec};
    saturated_cell().arq(ArqConfig::default()).faults(
        FaultSpec::none()
            .with_outages(1, 120)
            .with_brownouts(2, 150, 0.25)
            .with_bursts(2, 80, 0.03)
            .with_resets(64),
    )
}

fn metro_grid() -> Deployment {
    use fmbs_net::prelude::{Receiver, Station};
    Deployment::city(1_000_000)
        .slots(10_000)
        .stations([Station::at(10_000.0, 0.0)])
        .receivers(Receiver::grid(4, 4, 40.0))
        .capture(6.0)
}

/// The case a net-series record belongs to: the one whose suffix ends
/// its label, else the saturated case.
fn case_of(label: &str) -> usize {
    NET_CASES
        .iter()
        .position(|c| !c.suffix.is_empty() && label.ends_with(c.suffix))
        .unwrap_or(0)
}

/// Measures one case over `table` (best of its samples) and returns the
/// record. Errs (instead of panicking) when the deployment fails
/// build-time validation, with the typed error's hint attached, and
/// when a run does not conserve its queues (every offered packet is
/// delivered, dropped, abandoned or still queued). The check holds in
/// release builds too, so the gate never records a run that lost
/// packets.
pub fn measure_net(
    case: &NetCase,
    table: &Arc<BerTable>,
    label: &str,
) -> Result<NetPerfRecord, String> {
    let plan = (case.deployment)().build().map_err(|e| {
        format!(
            "invalid {} deployment: {e}\n  hint: {}",
            case.name,
            e.hint()
        )
    })?;
    let (n_tags, n_slots) = (plan.network_config().n_tags, plan.network_config().n_slots);
    let sim = plan.into_sim(table.clone());
    let mut best = f64::INFINITY;
    let mut delivered = 0;
    for _ in 0..case.samples.max(1) {
        let t = Instant::now();
        let run = sim.run();
        best = best.min(t.elapsed().as_secs_f64());
        if !run.stats.queue_conserved() {
            return Err(format!(
                "{}: queue not conserved: {:?}",
                case.name, run.stats
            ));
        }
        delivered = run.stats.delivered;
    }
    Ok(NetPerfRecord {
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: format!("{label}{}", case.suffix),
        n_tags,
        n_slots,
        elapsed_s: best,
        tag_slots_per_sec: n_tags as f64 * n_slots as f64 / best,
        delivered,
    })
}

/// Measures one case and appends it to the net series file at `path`
/// (same create/don't-clobber policy as [`record`]).
pub fn record_net(
    path: &str,
    case: &NetCase,
    table: &Arc<BerTable>,
    label: &str,
) -> Result<NetPerfRecord, String> {
    append_net(path, measure_net(case, table, label)?)
}

fn append_net(path: &str, rec: NetPerfRecord) -> Result<NetPerfRecord, String> {
    let mut series: NetPerfSeries = if std::path::Path::new(path).exists() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read existing {path}: {e}"))?;
        serde_json::from_str(&text)
            .map_err(|e| format!("{path} exists but is not a net perf series: {e:?}"))?
    } else {
        NetPerfSeries::default()
    };
    series.series.push(rec.clone());
    let json = serde_json::to_string_pretty(&series).map_err(|e| format!("serialise: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(rec)
}

// ------------------------------------------------------ regression gate

/// Largest tolerated fractional throughput drop below the committed
/// baseline before the perf gate fails (CI machines are noisy; a real
/// hot-path regression blows well past this).
pub const MAX_PERF_DROP: f64 = 0.30;

/// Outcome of comparing a fresh measurement against a baseline.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Which series was gated ("sweep serial", "network").
    pub name: String,
    /// Label of the baseline record.
    pub baseline_label: String,
    /// Baseline throughput.
    pub baseline: f64,
    /// Fresh measurement.
    pub measured: f64,
    /// Fractional drop below baseline (negative = faster).
    pub drop_frac: f64,
    /// Whether the measurement stays within `max_drop` of the baseline.
    pub passed: bool,
}

impl GateOutcome {
    /// One status line for the gate report.
    pub fn render(&self) -> String {
        format!(
            "{} {}: {:.1} vs baseline {:.1} (\"{}\", {:+.1}%)",
            if self.passed { "PASS" } else { "FAIL" },
            self.name,
            self.measured,
            self.baseline,
            self.baseline_label,
            -100.0 * self.drop_frac,
        )
    }
}

/// Compares a measured throughput against a baseline value; fails when
/// it drops more than `max_drop` (a fraction, e.g. 0.30) below it.
pub fn compare(
    name: &str,
    measured: f64,
    baseline_label: &str,
    baseline: f64,
    max_drop: f64,
) -> GateOutcome {
    // A baseline that is zero, negative or NaN is unusable: fail the
    // gate rather than silently passing any measurement against it.
    let usable = baseline.is_finite() && baseline > 0.0;
    let drop_frac = if usable {
        1.0 - measured / baseline
    } else {
        f64::INFINITY
    };
    GateOutcome {
        name: name.to_string(),
        baseline_label: baseline_label.to_string(),
        baseline,
        measured,
        drop_frac,
        // Tiny epsilon so a drop of exactly `max_drop` passes despite
        // float rounding in the division.
        passed: usable && drop_frac <= max_drop + 1e-12,
    }
}

/// Reads the last record of the sweep series at `path`. Callers gating
/// a fresh measurement must read the baseline *before* appending to the
/// same file, or they would compare the measurement against itself.
pub fn last_sweep_record(path: &str) -> Result<PerfRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    let series: PerfSeries =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not a perf series: {e:?}"))?;
    series
        .series
        .last()
        .cloned()
        .ok_or_else(|| format!("{path} has no records"))
}

/// Reads and parses the network series at `path` once and returns the
/// newest record of each [`NET_CASES`] population, in table order
/// (`None` where a population has no record yet). The file is read
/// exactly once, so a malformed series is *one* error, not one per
/// population. Same read-before-append caveat as [`last_sweep_record`].
pub fn net_baselines(path: &str) -> Result<Vec<Option<NetPerfRecord>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    let series: NetPerfSeries = serde_json::from_str(&text)
        .map_err(|e| format!("{path} is not a net perf series: {e:?}"))?;
    let mut baselines = vec![None; NET_CASES.len()];
    for r in series.series.iter().rev() {
        baselines[case_of(&r.label)].get_or_insert_with(|| r.clone());
    }
    Ok(baselines)
}

/// Gates a fresh sweep measurement against a baseline record (serial
/// points/s — the parallel number scales with the runner's core count).
pub fn gate_sweep(baseline: &PerfRecord, measured: &PerfRecord, max_drop: f64) -> GateOutcome {
    compare(
        "sweep serial points/s",
        measured.serial_points_per_sec,
        &baseline.label,
        baseline.serial_points_per_sec,
        max_drop,
    )
}

/// Gates a fresh measurement of `case` against its population's
/// baseline record (tag·slots/s).
pub fn gate_net(
    case: &NetCase,
    baseline: &NetPerfRecord,
    measured: &NetPerfRecord,
    max_drop: f64,
) -> GateOutcome {
    compare(
        &format!("{} tag-slots/s", case.name),
        measured.tag_slots_per_sec,
        &baseline.label,
        baseline.tag_slots_per_sec,
        max_drop,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_series_path_derivation() {
        assert_eq!(net_series_path("BENCH_sweep.json"), "BENCH_net.json");
        assert_eq!(
            net_series_path("/tmp/BENCH_sweep.json"),
            "/tmp/BENCH_net.json"
        );
        assert_eq!(net_series_path("perf.json"), "perf.json.net.json");
    }

    #[test]
    fn net_cases_build_at_their_documented_sizes() {
        // Build only: the runs themselves belong to `repro --perf`.
        let sizes: Vec<(usize, u64)> = NET_CASES
            .iter()
            .map(|case| {
                let plan = (case.deployment)()
                    .build()
                    .unwrap_or_else(|e| panic!("{} deployment: {e}", case.name));
                let cfg = plan.network_config();
                (cfg.n_tags, cfg.n_slots)
            })
            .collect();
        assert_eq!(
            sizes,
            [
                (10_000, 1_000),
                (10_000, 1_000),
                (10_000, 1_000),
                (1_000_000, 10_000)
            ]
        );
    }

    #[test]
    fn measure_reports_positive_throughput() {
        let rec = measure("test", 1);
        assert_eq!(rec.grid_points, 25);
        assert!(rec.serial_points_per_sec > 0.0);
        assert!(rec.parallel_points_per_sec > 0.0);
        // The cache must be doing real work on this grid: 25 points share
        // one host programme and one encoded payload.
        assert!(rec.cache.hits() > 0, "{:?}", rec.cache);
    }

    #[test]
    fn compare_thirty_percent_edge() {
        // Exactly at the allowed drop passes; just past it fails.
        assert!(compare("s", 70.0, "base", 100.0, MAX_PERF_DROP).passed);
        assert!(!compare("s", 69.9, "base", 100.0, MAX_PERF_DROP).passed);
        // Faster than baseline is always fine.
        let fast = compare("s", 140.0, "base", 100.0, MAX_PERF_DROP);
        assert!(fast.passed && fast.drop_frac < 0.0);
        // An unusable baseline (zero/negative/NaN) fails instead of
        // silently disabling the gate.
        assert!(!compare("s", 1e9, "base", 0.0, MAX_PERF_DROP).passed);
        assert!(!compare("s", 1e9, "base", -5.0, MAX_PERF_DROP).passed);
        assert!(!compare("s", 1e9, "base", f64::NAN, MAX_PERF_DROP).passed);
    }

    #[test]
    fn gate_reads_last_committed_record() {
        let dir = std::env::temp_dir().join("fmbs_perf_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let path = path.to_str().unwrap();
        let mk = |label: &str, serial: f64| PerfRecord {
            unix_time: 0,
            label: label.into(),
            grid_points: 25,
            serial_points_per_sec: serial,
            parallel_points_per_sec: serial,
            cache: CacheStats::default(),
            figure_wall_s: Vec::new(),
        };
        let series = PerfSeries {
            series: vec![mk("old", 1_000.0), mk("newest", 100.0)],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        // The baseline is the *last* record: "newest" (100), not "old".
        let baseline = last_sweep_record(path).unwrap();
        assert_eq!(baseline.label, "newest");
        let ok = gate_sweep(&baseline, &mk("fresh", 90.0), MAX_PERF_DROP);
        assert!(ok.passed, "{}", ok.render());
        let bad = gate_sweep(&baseline, &mk("fresh", 50.0), MAX_PERF_DROP);
        assert!(!bad.passed);
        assert!(last_sweep_record("/nonexistent/series.json").is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn net_baseline_lookups_split_the_populations() {
        let dir = std::env::temp_dir().join("fmbs_perf_workload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_net.json");
        let path = path.to_str().unwrap();
        let mk = |label: &str, tps: f64| NetPerfRecord {
            unix_time: 0,
            label: label.into(),
            n_tags: 10_000,
            n_slots: 1_000,
            elapsed_s: 1.0,
            tag_slots_per_sec: tps,
            delivered: 1,
        };
        let labels = |b: Vec<Option<NetPerfRecord>>| -> Vec<Option<String>> {
            b.into_iter().map(|r| r.map(|r| r.label)).collect()
        };
        // Saturated-only series: no other population has a baseline yet.
        let series = NetPerfSeries {
            series: vec![mk("old", 1.0), mk("new", 2.0)],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        assert_eq!(
            labels(net_baselines(path).unwrap()),
            [Some("new".to_string()), None, None, None]
        );
        // Mixed series: each population finds its own last record, not
        // the file's last record.
        let series = NetPerfSeries {
            series: vec![
                mk("old", 1.0),
                mk("ci+workload", 3.0),
                mk("new", 2.0),
                mk("ci+faults", 4.0),
                mk("pr9+metro", 5.0),
            ],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        assert_eq!(
            labels(net_baselines(path).unwrap()),
            ["new", "ci+workload", "ci+faults", "pr9+metro"].map(|l| Some(l.to_string()))
        );
        // A record joins the population whose suffix ends its label.
        let names: Vec<&str> = ["ci", "ci+workload", "ci+faults", "pr9+metro", "pr9+metro!"]
            .iter()
            .map(|l| NET_CASES[case_of(l)].name)
            .collect();
        assert_eq!(names, ["network", "workload", "faults", "metro", "network"]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn net_baselines_parses_once_and_fails_once() {
        let dir = std::env::temp_dir().join("fmbs_perf_baselines_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_net.json");
        let path = path.to_str().unwrap();
        // A malformed file yields a single error from the one shared
        // parse, not one per population.
        std::fs::write(path, "{ not json").unwrap();
        let err = net_baselines(path).unwrap_err();
        assert!(err.contains("not a net perf series"), "{err}");
        // One parse populates every population slot.
        let mk = |label: &str| NetPerfRecord {
            unix_time: 0,
            label: label.into(),
            n_tags: 10_000,
            n_slots: 1_000,
            elapsed_s: 1.0,
            tag_slots_per_sec: 1.0,
            delivered: 1,
        };
        let series = NetPerfSeries {
            series: vec![
                mk("a"),
                mk("a+workload"),
                mk("a+faults"),
                mk("a+metro"),
                mk("b"),
            ],
        };
        std::fs::write(path, serde_json::to_string_pretty(&series).unwrap()).unwrap();
        let baselines: Vec<String> = net_baselines(path)
            .unwrap()
            .into_iter()
            .map(|r| r.expect("every population present").label)
            .collect();
        assert_eq!(baselines, ["b", "a+workload", "a+faults", "a+metro"]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn legacy_records_without_new_fields_still_parse() {
        // A committed pre-observability record: no `figure_wall_s`, no
        // `version`/`front_end_*` inside the cache block. The series
        // file is append-only history, so this must keep parsing.
        let text = concat!(
            r#"{"series":[{"unix_time":1,"label":"old","grid_points":25,"#,
            r#""serial_points_per_sec":10.0,"parallel_points_per_sec":20.0,"#,
            r#""cache":{"host_hits":4,"host_misses":1,"payload_hits":4,"payload_misses":1}}]}"#,
        );
        let series: PerfSeries = serde_json::from_str(text).unwrap();
        let rec = &series.series[0];
        assert!(rec.figure_wall_s.is_empty());
        assert_eq!(rec.cache.version, 1, "unversioned records read as v1");
        assert_eq!(rec.cache.host_hits, 4);
        assert_eq!(rec.cache.front_end_hits, 0);
        assert_eq!(rec.cache.front_end_misses, 0);
    }

    #[test]
    fn perf_record_round_trips_the_new_fields() {
        let rec = PerfRecord {
            unix_time: 7,
            label: "v2".into(),
            grid_points: 25,
            serial_points_per_sec: 10.0,
            parallel_points_per_sec: 20.0,
            cache: CacheStats {
                front_end_hits: 3,
                front_end_misses: 1,
                ..CacheStats::default()
            },
            figure_wall_s: vec![("fig4a".into(), 0.25)],
        };
        let text = serde_json::to_string_pretty(&rec).unwrap();
        let back: PerfRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.cache, rec.cache);
        assert_eq!(
            back.cache.version,
            fmbs_core::sim::cache::CACHE_STATS_VERSION
        );
        assert_eq!(back.figure_wall_s, rec.figure_wall_s);
    }

    #[test]
    fn record_appends_to_series() {
        let dir = std::env::temp_dir().join("fmbs_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        record(path, "first", 1).unwrap();
        record(path, "second", 1).unwrap();
        let series: PerfSeries =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(series.series.len(), 2);
        assert_eq!(series.series[0].label, "first");
        assert_eq!(series.series[1].label, "second");
        let _ = std::fs::remove_file(path);
    }
}
