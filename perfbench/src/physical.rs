//! `physical`: Fig. 7 and Fig. 17b on the RF-rate physical tier — what
//! `repro --tier physical fig7 fig17b` runs: no cache installed, so each
//! sweep makes its own.
//!
//! Fixed inputs: the quick grid of the two figures. The check is each
//! figure's own expectations plus a digest pinned in `perfbench/pins.txt`.
//! Fig. 8b is not among them: on the physical tier its -60 dBm series
//! misses its own expectation (BER >= 0.1 at 18 ft), so every run would
//! count a failed operation.

use crate::pins::Pins;
use crate::probes;
use crate::trace::{Metrics, Tracer};
use crate::{cache_metrics, Size, Tally, Workload};
use fmbs_bench::campaign::fnv1a64;
use fmbs_bench::check::{canonical_json, check_experiment};
use fmbs_bench::experiments::{spec_by_id, ExperimentSpec, Grid};
use fmbs_bench::report::Experiment;
use fmbs_core::sim::cache::CacheStats;
use fmbs_core::sim::Tier;
use std::hint::black_box;

const FIGURES: [&str; 2] = ["fig7", "fig17b"];

pub struct Physical {
    size: Size,
    pins: Pins,
}

impl Physical {
    pub fn new(size: Size) -> Result<Self, String> {
        Ok(Physical {
            size,
            pins: Pins::load()?,
        })
    }
}

pub struct Output {
    figures: Vec<(&'static ExperimentSpec, Experiment)>,
    cache: CacheStats,
}

/// A figure's builder on a selectable tier (`ExperimentSpec::tiered`).
type Tiered = fn(Grid, Tier) -> Experiment;

pub struct Setup {
    figures: Vec<(&'static ExperimentSpec, Tiered)>,
}

fn digest(e: &Experiment) -> u64 {
    fnv1a64(canonical_json(e).as_bytes())
}

/// The sweep caches' hit and miss counters, in `CacheStats` field order.
const CACHE_COUNTERS: [&str; 6] = [
    "cache.host_hits",
    "cache.host_misses",
    "cache.payload_hits",
    "cache.payload_misses",
    "cache.front_end_hits",
    "cache.front_end_misses",
];

/// [`CACHE_COUNTERS`] as the installed collector has them so far (all
/// zero when none is installed).
fn cache_counts() -> [usize; 6] {
    fmbs_obs::active().map_or([0; 6], |c| {
        CACHE_COUNTERS.map(|name| c.counter_value(name) as usize)
    })
}

impl Workload for Physical {
    type Setup = Setup;
    type Output = Output;

    fn setup_reps(&self) -> usize {
        5
    }

    /// Resolves the figures, then runs Fig. 7's base scenario once on
    /// the physical tier, which pays the tier's first-use costs (the
    /// shared simulator, allocator and page warm-up) before the timed
    /// phase.
    fn setup(&self, _t: &Tracer) -> Result<Setup, String> {
        let ids = match self.size {
            Size::Full => &FIGURES[..],
            Size::Tiny => &FIGURES[..1],
        };
        let figures = ids
            .iter()
            .map(|id| {
                let spec = spec_by_id(id).ok_or_else(|| format!("no registry figure {id}"))?;
                let tiered = spec
                    .tiered
                    .ok_or_else(|| format!("figure {id} cannot run on the physical tier"))?;
                Ok((spec, tiered))
            })
            .collect::<Result<_, String>>()?;
        black_box(Tier::Physical.simulator().run(&probes::fig7_base()));
        Ok(Setup { figures })
    }

    /// The figures one after another with no cache installed, so every
    /// sweep makes its own, as in `repro`. The cache counters come from
    /// the program's collector when one is installed (the traced pass).
    fn job(&self, s: &Setup, t: &Tracer) -> Output {
        let before = cache_counts();
        let figures = s
            .figures
            .iter()
            .map(|&(spec, tiered)| {
                let e = t.span(&format!("bench.figure.{}", spec.id), || {
                    tiered(Grid::Quick, Tier::Physical)
                });
                (spec, e)
            })
            .collect();
        let after = cache_counts();
        let n = |i: usize| after[i] - before[i];
        let cache = CacheStats {
            host_hits: n(0),
            host_misses: n(1),
            payload_hits: n(2),
            payload_misses: n(3),
            front_end_hits: n(4),
            front_end_misses: n(5),
            ..CacheStats::default()
        };
        Output { figures, cache }
    }

    fn ops(&self, o: &Output) -> f64 {
        o.figures
            .iter()
            .flat_map(|(_, e)| &e.series)
            .map(|s| s.points.len())
            .sum::<usize>() as f64
    }

    fn ops_name(&self) -> &'static str {
        "points_per_s"
    }

    /// One operation per figure: its expectations hold and its digest
    /// matches the pin.
    fn check(&self, o: &Output, tally: &mut Tally) {
        for (spec, e) in &o.figures {
            let report = check_experiment(e, &(spec.checks)());
            let key = format!("physical.{}", spec.id);
            let got = format!("{:016x}", digest(e));
            let pinned = self.pins.get(&key);
            let failed: Vec<&str> = report
                .outcomes
                .iter()
                .filter(|o| !o.passed)
                .map(|o| o.description.as_str())
                .collect();
            tally.op(failed.is_empty() && pinned == Some(got.as_str()), || {
                format!(
                    "{key}: digest {got} (pinned {}), failed expectations {failed:?}",
                    pinned.unwrap_or("none")
                )
            });
        }
    }

    fn digest(&self, o: &Output) -> u64 {
        let all: Vec<u8> = o
            .figures
            .iter()
            .flat_map(|(_, e)| digest(e).to_le_bytes())
            .collect();
        fnv1a64(&all)
    }

    fn layers(
        &self,
        s: &Self::Setup,
        o: &Output,
        t: &Tracer,
        _collector: &fmbs_obs::Collector,
        m: &mut Metrics,
        _tally: &mut Tally,
    ) {
        for (spec, _) in &s.figures {
            m.set(
                format!("bench.figure_s.{}", spec.id),
                t.total_s(&format!("bench.figure.{}", spec.id)),
                "s",
            );
        }
        cache_metrics(&o.cache, m);
        probes::dsp(t, m);
        probes::fm_receive(t, m);
        probes::core_physical(t, m);
    }
}
