//! `campaign`: the figure registry × the city corpus on the quick grid
//! under one shared sweep cache — what `repro --campaign` runs.
//!
//! Fixed inputs: the committed corpus and the quick grid. The check is
//! the committed campaign goldens, which pin every figure's digest.

use crate::probes;
use crate::trace::{Metrics, Tracer};
use crate::{cache_metrics, link_call_metrics, Size, Tally, Workload};
use fmbs_bench::campaign::{
    build_city_manifest, fnv1a64, manifest_text, run_campaign, CampaignFigure,
};
use fmbs_bench::check::canonical_value;
use fmbs_bench::experiments::{spec_by_id, ExperimentSpec, Grid, REGISTRY};
use fmbs_core::sim::cache::CacheStats;
use fmbs_net::prelude::CityScenario;
use serde::{Deserialize, Value};
use std::cell::Cell;
use std::collections::BTreeMap;

const CORPUS_DIR: &str = "corpus";
const GOLDEN_DIR: &str = "goldens/campaign";
/// The self-test's subset: one survey figure and one city-specific
/// network figure, over every city.
const TINY_FIGURES: [&str; 2] = ["fig2a", "network_capacity"];

pub struct Campaign {
    size: Size,
}

impl Campaign {
    pub fn new(size: Size) -> Result<Self, String> {
        Ok(Campaign { size })
    }
}

pub struct Setup {
    cities: Vec<CityScenario>,
    specs: Vec<&'static ExperimentSpec>,
}

pub struct CityOut {
    id: String,
    text: String,
}

pub struct Output {
    cities: Vec<CityOut>,
    points: usize,
    cache: CacheStats,
}

fn figure_span(id: &str) -> String {
    format!("bench.figure.{id}")
}

/// Spans from `run_campaign`'s progress lines: it prints one line per
/// finished figure (`  invariant 3/9: fig5`, `  austin: fig14`) and one
/// as each city starts (`city austin (1/4)`). A figure's span runs from
/// the previous line to its own; a city line only restarts the clock.
fn progress_spans<'t>(t: &'t Tracer) -> impl Fn(&str) + 't {
    let last = Cell::new(t.mark());
    move |line: &str| {
        if !line.starts_with("city ") {
            if let Some((_, id)) = line.rsplit_once(": ") {
                t.close(&figure_span(id), last.get());
            }
        }
        last.set(t.mark());
    }
}

fn golden_text(city: &str) -> Result<String, String> {
    let path = format!("{GOLDEN_DIR}/{city}.json");
    std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
}

/// The `figures` entries of a manifest with their ids, in manifest
/// order.
fn figure_entries(text: &str) -> Result<Vec<(String, Value)>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("manifest JSON: {e}"))?;
    let Ok(Value::Seq(figures)) = v.get_field("figures") else {
        return Err("manifest has no figures list".into());
    };
    figures
        .iter()
        .map(|f| match f.get_field("id") {
            Ok(Value::Str(id)) => Ok((id.clone(), f.clone())),
            _ => Err("figure entry without an id".into()),
        })
        .collect()
}

/// A figure cell back from its manifest entry.
fn figure_cell(entry: &Value) -> Result<CampaignFigure, String> {
    fn field<T: Deserialize>(entry: &Value, name: &str) -> Result<T, String> {
        entry
            .get_field(name)
            .and_then(T::from_value)
            .map_err(|e| format!("figure entry {name}: {e}"))
    }
    Ok(CampaignFigure {
        id: field(entry, "id")?,
        title: field(entry, "title")?,
        n_series: field(entry, "n_series")?,
        n_points: field(entry, "n_points")?,
        digest: field(entry, "digest")?,
        city_specific: field(entry, "city_specific")?,
    })
}

impl Workload for Campaign {
    type Setup = Setup;
    type Output = Output;

    fn setup_reps(&self) -> usize {
        201
    }

    fn setup(&self, _t: &Tracer) -> Result<Setup, String> {
        let cities = fmbs_net::corpus::load_corpus(std::path::Path::new(CORPUS_DIR))
            .map_err(|e| format!("load {CORPUS_DIR}/: {e}"))?;
        let specs = match self.size {
            Size::Full => REGISTRY.iter().collect(),
            Size::Tiny => TINY_FIGURES
                .iter()
                .map(|id| spec_by_id(id).ok_or_else(|| format!("no registry figure {id}")))
                .collect::<Result<_, _>>()?,
        };
        Ok(Setup { cities, specs })
    }

    fn job(&self, s: &Setup, t: &Tracer) -> Output {
        let run = run_campaign(Grid::Quick, &s.cities, &s.specs, progress_spans(t));
        Output {
            cities: run
                .cities
                .iter()
                .map(|c| CityOut {
                    id: c.id.clone(),
                    text: manifest_text(c),
                })
                .collect(),
            points: run.cities.iter().map(|c| c.points).sum(),
            cache: run.cache,
        }
    }

    fn ops(&self, o: &Output) -> f64 {
        o.points as f64
    }

    fn ops_name(&self) -> &'static str {
        "points_per_s"
    }

    /// One operation per figure cell (its entry must equal the golden's
    /// entry for that figure) and, at full size, one per city for the
    /// byte-identity of the whole manifest.
    fn check(&self, o: &Output, tally: &mut Tally) {
        for city in &o.cities {
            let golden = golden_text(&city.id);
            let entries = figure_entries(&city.text);
            let (golden, entries) = match (golden, entries) {
                (Ok(g), Ok(e)) => (g, e),
                (Err(e), _) | (_, Err(e)) => {
                    tally.op(false, || format!("campaign {}: {e}", city.id));
                    continue;
                }
            };
            let want: BTreeMap<String, Value> = figure_entries(&golden)
                .unwrap_or_default()
                .into_iter()
                .collect();
            for (id, entry) in &entries {
                tally.op(want.get(id) == Some(entry), || {
                    format!(
                        "campaign {} {id}: figure cell differs from the golden",
                        city.id
                    )
                });
            }
            if self.size == Size::Full {
                tally.op(golden == city.text, || {
                    format!(
                        "campaign {}: manifest is not byte-identical to the golden",
                        city.id
                    )
                });
            }
        }
    }

    fn digest(&self, o: &Output) -> u64 {
        let all: String = o.cities.iter().map(|c| c.text.as_str()).collect();
        fnv1a64(all.as_bytes())
    }

    fn layers(
        &self,
        s: &Setup,
        o: &Output,
        t: &Tracer,
        collector: &fmbs_obs::Collector,
        m: &mut Metrics,
        tally: &mut Tally,
    ) {
        for spec in &s.specs {
            m.set(
                format!("bench.figure_s.{}", spec.id),
                t.total_s(&figure_span(spec.id)),
                "s",
            );
        }
        for (city, out) in s.cities.iter().zip(&o.cities) {
            let cells: Result<Vec<CampaignFigure>, String> = figure_entries(&out.text)
                .and_then(|entries| entries.iter().map(|(_, e)| figure_cell(e)).collect());
            let cells = match cells {
                Ok(cells) => cells,
                Err(e) => {
                    tally.op(false, || format!("campaign {}: {e}", city.id));
                    continue;
                }
            };
            let same = t.span("bench.manifest", || {
                let manifest = build_city_manifest(Grid::Quick, city, s.cities.len(), &cells);
                golden_text(&city.id).is_ok_and(|g| g == canonical_value(&manifest))
            });
            if self.size == Size::Full {
                tally.op(same, || {
                    format!("campaign {}: rebuilt manifest differs", city.id)
                });
            }
        }
        m.set("bench.manifest_s", t.total_s("bench.manifest"), "s");
        cache_metrics(&o.cache, m);
        link_call_metrics(collector, m);

        probes::survey(t, self.size, m);
        probes::pesq(t, m);
        probes::dsp(t, m);
        probes::core_fast(t, m);
        let defaults = fmbs_net::prelude::NetworkConfig::new(1, 1);
        probes::net_link(t, defaults.packet_bits, defaults.coding, m);
    }
}
