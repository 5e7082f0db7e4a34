//! The repository benchmark.
//!
//! ```text
//! perfbench --workload campaign|physical|metro --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! Runs one workload from the checkout root (it reads `corpus/`,
//! `goldens/` and `perfbench/pins.txt`), checks every output, and
//! prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` the run makes one
//! untraced and one traced pass and reports the per-layer metrics.
//! Exits non-zero, printing no result, when it cannot run at all.

mod campaign;
mod host;
mod metro;
mod physical;
mod pins;
mod probes;
mod trace;

use host::Timing;
use trace::{median, Metrics, Tracer};

/// Input size: the benchmark proper, or the self-test's quick pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size {value}: expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Counts checked operations and their failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation; `why` explains a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let note = format!("FAIL {}", why());
            if !self.notes.contains(&note) {
                self.notes.push(note);
            }
        }
    }
}

/// One benchmark workload: a set-up, a timed job over its products, and
/// the checks on the job's output.
pub trait Workload {
    type Setup;
    type Output;

    /// Set-up samples per untraced run (the median is reported).
    fn setup_reps(&self) -> usize;

    /// Everything before the timed phase.
    fn setup(&self, t: &Tracer) -> Result<Self::Setup, String>;

    /// The timed phase.
    fn job(&self, s: &Self::Setup, t: &Tracer) -> Self::Output;

    /// Units of work the job completed (sweep points, engine attempts).
    fn ops(&self, o: &Self::Output) -> f64;

    /// What `ops_per_s` counts on this workload, by its own name
    /// (`points_per_s`, `attempts_per_s`).
    fn ops_name(&self) -> &'static str;

    /// Checks the output, one tally entry per operation.
    fn check(&self, o: &Self::Output, tally: &mut Tally);

    /// A digest of everything the job produced, for traced == untraced.
    fn digest(&self, o: &Self::Output) -> u64;

    /// Per-layer metrics of the traced pass: read from its spans, its
    /// outputs and its collector, plus the workload's layer probes.
    fn layers(
        &self,
        s: &Self::Setup,
        o: &Self::Output,
        t: &Tracer,
        collector: &fmbs_obs::Collector,
        m: &mut Metrics,
        tally: &mut Tally,
    );
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
/// A traced run reports each one; a metric whose layer call the
/// workload does not make reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = fmbs_bench::experiments::REGISTRY
        .iter()
        .map(|s| (format!("bench.figure_s.{}", s.id), "s"))
        .collect();
    let fixed: [(&str, &'static str); 33] = [
        ("bench.manifest_s", "s"),
        ("survey.stereo_util_s", "s"),
        ("audio.pesq_s", "s"),
        ("dsp.fir_msamples_per_s", "Msamples/s"),
        ("dsp.fir_decim_msamples_per_s", "Msamples/s"),
        ("dsp.welch_msamples_per_s", "Msamples/s"),
        ("fm.receive_msamples_per_s", "Msamples/s"),
        ("core.fast.run_s", "s"),
        ("core.physical.run_s", "s"),
        ("core.cache.host_hits", "count"),
        ("core.cache.host_misses", "count"),
        ("core.cache.payload_hits", "count"),
        ("core.cache.payload_misses", "count"),
        ("core.cache.front_end_hits", "count"),
        ("core.cache.front_end_misses", "count"),
        ("core.cache.hit_ratio", "ratio"),
        ("net.link.ber_calibrate_s", "s"),
        ("net.link.packet_model_s", "s"),
        ("net.link.ber_calibrate_calls", "count"),
        ("net.link.packet_model_calls", "count"),
        ("net.topology.build_s", "s"),
        ("net.engine.serial_s", "s"),
        ("net.engine.parallel_s", "s"),
        ("net.engine.attempts_per_s", "attempts/s"),
        ("net.engine.parallel_efficiency", "ratio"),
        ("net.engine.domain_load_max_mean", "ratio"),
        ("net.engine.attempts", "count"),
        ("net.engine.delivered", "count"),
        ("net.engine.corrupt", "count"),
        ("net.engine.collided", "count"),
        ("net.engine.delivered_ratio", "ratio"),
        ("workload.trace_gen_s", "s"),
        ("workload.arrivals", "count"),
    ];
    names.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    names.push(("obs.trace_overhead_ratio".into(), "ratio"));
    names
}

/// Reads the `core.cache.*` metrics off a sweep cache's counters.
pub fn cache_metrics(stats: &fmbs_core::sim::cache::CacheStats, m: &mut Metrics) {
    let counts = [
        ("host_hits", stats.host_hits),
        ("host_misses", stats.host_misses),
        ("payload_hits", stats.payload_hits),
        ("payload_misses", stats.payload_misses),
        ("front_end_hits", stats.front_end_hits),
        ("front_end_misses", stats.front_end_misses),
    ];
    for (name, n) in counts {
        m.set(format!("core.cache.{name}"), n as f64, "count");
    }
    let lookups = stats.hits() + stats.misses();
    m.set(
        "core.cache.hit_ratio",
        stats.hits() as f64 / lookups.max(1) as f64,
        "ratio",
    );
}

/// Reads the `net.link.*_calls` counts off the program's own collector.
pub fn link_call_metrics(collector: &fmbs_obs::Collector, m: &mut Metrics) {
    let calls = |stage: &str| {
        collector
            .stage_stats()
            .iter()
            .find(|(name, _)| *name == stage)
            .map_or(0, |(_, s)| s.calls)
    };
    let ber = calls(fmbs_obs::stages::BER_CALIBRATE);
    let pm = calls(fmbs_obs::stages::PACKET_MODEL);
    m.set("net.link.ber_calibrate_calls", ber as f64, "count");
    m.set("net.link.packet_model_calls", pm as f64, "count");
}

struct Report {
    tally: Tally,
    metrics: Metrics,
    lines: Vec<String>,
    spans: Option<String>,
}

/// The untraced run: timed set-ups, then jobs until `seconds` of timed
/// phase have passed (at least one), every output checked.
fn run_untraced<W: Workload>(w: &W, seconds: f64) -> Result<Report, String> {
    let off = Tracer::off();
    let mut setup_samples = Vec::new();
    let mut setup = None;
    for _ in 0..w.setup_reps().max(1) {
        // Each set-up starts from an empty slate: the previous one is
        // dropped first, so only one is ever alive.
        drop(setup.take());
        let (s, t) = host::timed(|| w.setup(&off));
        setup = Some(s?);
        setup_samples.push(t.wall_s);
    }
    let setup = setup.expect("at least one set-up ran");

    let mut tally = Tally::default();
    let mut timings: Vec<Timing> = Vec::new();
    let mut ops = Vec::new();
    let mut digests = Vec::new();
    while timings.is_empty() || timings.iter().map(|t| t.wall_s).sum::<f64>() < seconds {
        let (out, t) = host::timed(|| w.job(&setup, &off));
        timings.push(t);
        ops.push(w.ops(&out));
        digests.push(w.digest(&out));
        w.check(&out, &mut tally);
    }
    let reps = timings.len();
    tally.op(digests.iter().all(|&d| d == digests[0]), || {
        format!("the {reps} repetitions of the job produced different outputs")
    });

    let wall: Vec<f64> = timings.iter().map(|t| t.wall_s).collect();
    let cpu: Vec<f64> = timings.iter().map(|t| t.cpu_s).collect();
    let wall_s = median(&wall);
    let mut m = Metrics::default();
    m.set("wall_s", wall_s, "s");
    m.set("setup_s", median(&setup_samples), "s");
    m.set("cpu_s", median(&cpu), "s");
    m.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    m.set("ops_per_s", median(&ops) / wall_s, "ops/s");
    let lines = vec![
        format!("repetitions: {reps} (wall_s samples {wall:?})"),
        format!("output digest: {:016x}", digests[0]),
        format!(
            "{} = {} (reported as ops_per_s)",
            w.ops_name(),
            median(&ops) / wall_s
        ),
    ];
    Ok(Report {
        tally,
        metrics: m,
        lines,
        spans: None,
    })
}

/// The traced run: one untraced pass, then one pass with the
/// benchmark's spans and the program's collector on; the two must
/// produce identical outputs.
fn run_traced<W: Workload>(w: &W, run_id: String) -> Result<Report, String> {
    let mut tally = Tally::default();
    let off = Tracer::off();
    let setup = w.setup(&off)?;
    let (out, plain) = host::timed(|| w.job(&setup, &off));
    w.check(&out, &mut tally);
    let plain_digest = w.digest(&out);
    drop((out, setup));

    let tracer = Tracer::recording(run_id);
    let collector = fmbs_obs::Collector::new();
    let mut m = Metrics::default();
    for (name, unit) in per_layer_names() {
        m.set(name, 0.0, unit);
    }
    let traced_digest = {
        let _obs = fmbs_obs::install(Some(collector.clone()));
        let setup = tracer.span("setup", || w.setup(&tracer))?;
        let (out, traced) = host::timed(|| tracer.span("job", || w.job(&setup, &tracer)));
        w.check(&out, &mut tally);
        m.set(
            "obs.trace_overhead_ratio",
            traced.wall_s / plain.wall_s,
            "ratio",
        );
        w.layers(&setup, &out, &tracer, &collector, &mut m, &mut tally);
        w.digest(&out)
    };
    tally.op(traced_digest == plain_digest, || {
        format!("traced output digest {traced_digest:016x} != untraced {plain_digest:016x}")
    });
    let lines = vec![format!(
        "untraced pass {:.3} s, traced pass digest {traced_digest:016x}",
        plain.wall_s
    )];
    Ok(Report {
        tally,
        metrics: m,
        lines,
        spans: Some(tracer.jsonl()),
    })
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<Report, String> {
    if args.trace {
        let run_id = format!(
            "{}-seed{}-{}",
            args.workload,
            args.seed,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        );
        run_traced(w, run_id)
    } else {
        run_untraced(w, args.seconds)
    }
}

/// Where a traced run writes its spans, relative to the checkout root.
const SPAN_DIR: &str = "perfbench/out";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload campaign|physical|metro --seed N --seconds S \
                 --trace 0|1 [--size full|tiny]"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "campaign" => campaign::Campaign::new(args.size).and_then(|w| run(&w, &args)),
        "physical" => physical::Physical::new(args.size).and_then(|w| run(&w, &args)),
        "metro" => metro::Metro::new(args.size, args.seed).and_then(|w| run(&w, &args)),
        other => Err(format!(
            "unknown workload {other} (expected campaign, physical or metro)"
        )),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(spans) = &report.spans {
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, spans));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("spans: {path}");
    }
    for (key, value) in host::provenance() {
        println!("provenance {key}: {value}");
    }
    println!(
        "provenance workload: {} seed: {} size: {:?} trace: {}",
        args.workload, args.seed, args.size, args.trace as u8
    );
    for line in &report.lines {
        println!("{line}");
    }
    for note in &report.tally.notes {
        println!("{note}");
    }
    let Tally {
        attempted, failed, ..
    } = report.tally;
    println!(
        "error_rate: {} ({failed} failed of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, (value, unit)) in report.metrics.iter() {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            std::process::exit(1);
        }
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        report.metrics.json()
    );
}
