//! `metro`: an operating-regime city — about 64 tags per receiver cell,
//! Poisson sensor beacons at 5% offered load, capture on — built with
//! `Deployment` and run by `CitySim`. The seed is the benchmark's: it
//! draws both the tag placement and the arrival trace, and the program
//! receives only the generated deployment and trace.
//!
//! The checks hold at any seed: queue conservation and attempt
//! accounting. At the default seed the run's statistics must also match
//! the digest pinned in `perfbench/pins.txt`.

use crate::pins::Pins;
use crate::probes;
use crate::trace::{Metrics, Tracer};
use crate::{link_call_metrics, Size, Tally, Workload};
use fmbs_bench::campaign::fnv1a64;
use fmbs_core::sim::fast::FastSim;
use fmbs_core::sim::scenario::{AppProfile, ArrivalModel};
use fmbs_net::prelude::{
    BerTable, BerTableSpec, CitySim, Deployment, MetroRun, NetStats, NetworkConfig, Receiver,
    Station, Traffic,
};
use fmbs_workload::prelude::TraceSpec;
use std::sync::Arc;

/// The seed whose statistics are pinned.
pub const DEFAULT_SEED: u64 = 1;
/// Per-tag packet arrivals per slot.
const OFFERED_LOAD: f64 = 0.05;
/// Receiver pitch in feet (the metro figures' geometry).
const PITCH_FT: f64 = 40.0;

struct Shape {
    tags: usize,
    grid: usize,
    slots: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        // 50,000 tags over 28 × 28 = 784 cells: 64 tags per cell. A
        // short run (about 1 s) so that one benchmark run repeats it
        // some twenty times and its median rides out host drift.
        Size::Full => Shape {
            tags: 50_000,
            grid: 28,
            slots: 500,
        },
        Size::Tiny => Shape {
            tags: 2_304,
            grid: 6,
            slots: 300,
        },
    }
}

pub struct Metro {
    size: Size,
    seed: u64,
    pins: Pins,
}

impl Metro {
    pub fn new(size: Size, seed: u64) -> Result<Self, String> {
        Ok(Metro {
            size,
            seed,
            pins: Pins::load()?,
        })
    }

    fn pin_key(&self) -> String {
        let size = match self.size {
            Size::Full => "full",
            Size::Tiny => "tiny",
        };
        format!("metro.{size}.seed{}", self.seed)
    }
}

pub struct Setup {
    sim: CitySim,
    arrivals: usize,
}

/// FNV-1a 64 over every outcome field of a run's statistics, numbers
/// as little-endian bytes.
fn stats_digest(s: &NetStats) -> u64 {
    let scalars = [
        s.n_tags as u64,
        s.n_slots,
        s.slot_secs.to_bits(),
        s.attempts,
        s.delivered,
        s.corrupt,
        s.collided,
        s.starved_slots,
        s.delivered_bits,
        s.offered,
        s.on_time,
        s.expired_dropped,
        s.still_queued,
        s.retransmissions,
        s.acked,
        s.abandoned,
    ];
    let mut bytes: Vec<u8> = scalars.iter().flat_map(|x| x.to_le_bytes()).collect();
    for list in [&s.per_tag_delivered, &s.latencies_slots, &s.sojourn_slots] {
        bytes.extend((list.len() as u64).to_le_bytes());
        bytes.extend(list.iter().flat_map(|x| x.to_le_bytes()));
    }
    fnv1a64(&bytes)
}

impl Workload for Metro {
    type Setup = Setup;
    type Output = MetroRun;

    fn setup_reps(&self) -> usize {
        9
    }

    fn setup(&self, t: &Tracer) -> Result<Setup, String> {
        let Shape { tags, grid, slots } = shape(self.size);
        let table = t.span("net.link.ber_calibrate", || {
            Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()))
        });
        let trace = t.span("workload.trace_gen", || {
            TraceSpec {
                n_tags: tags,
                n_slots: slots,
                slot_secs: NetworkConfig::new(tags, slots).slot_secs(),
                model: ArrivalModel::Poisson,
                offered_load: OFFERED_LOAD,
                profile: AppProfile::SensorBeacon,
                seed: self.seed,
            }
            .generate()
        });
        let arrivals = trace.per_tag.iter().map(Vec::len).sum();
        let plan = t
            .span("net.topology.build", || {
                Deployment::city(tags)
                    .slots(slots)
                    .seed(self.seed)
                    .stations([Station::at(10_000.0, 0.0)])
                    .receivers(Receiver::grid(grid, grid, PITCH_FT))
                    .capture(6.0)
                    .traffic(Traffic::Trace(Arc::new(trace)))
                    .build()
            })
            .map_err(|e| format!("metro deployment: {e}"))?;
        let sim = t.span("net.sim_new", || CitySim::new(plan, table));
        Ok(Setup { sim, arrivals })
    }

    fn job(&self, s: &Setup, t: &Tracer) -> MetroRun {
        t.span("net.engine.parallel", || s.sim.run())
    }

    fn ops(&self, o: &MetroRun) -> f64 {
        o.stats.attempts as f64
    }

    fn ops_name(&self) -> &'static str {
        "attempts_per_s"
    }

    /// One operation per run.
    fn check(&self, o: &MetroRun, tally: &mut Tally) {
        let s = &o.stats;
        let accounted = s.delivered + s.corrupt + s.collided;
        let digest = format!("{:016x}", stats_digest(s));
        let key = self.pin_key();
        let pinned = self.pins.get(&key);
        let pin_ok = self.seed != DEFAULT_SEED || pinned == Some(digest.as_str());
        tally.op(
            s.queue_conserved() && s.attempts == accounted && pin_ok,
            || {
                format!(
                    "metro seed {}: queue_conserved {}, attempts {} vs delivered+corrupt+collided \
                 {accounted}, digest {digest} (pinned {key} = {})",
                    self.seed,
                    s.queue_conserved(),
                    s.attempts,
                    pinned.unwrap_or("none"),
                )
            },
        );
    }

    fn digest(&self, o: &MetroRun) -> u64 {
        stats_digest(&o.stats)
    }

    fn layers(
        &self,
        s: &Setup,
        o: &MetroRun,
        t: &Tracer,
        collector: &fmbs_obs::Collector,
        m: &mut Metrics,
        tally: &mut Tally,
    ) {
        let stats = &o.stats;
        let parallel_s = t.total_s("net.engine.parallel");
        let serial = t.span("net.engine.serial", || s.sim.run_serial());
        let serial_s = t.total_s("net.engine.serial");
        tally.op(stats_digest(&serial.stats) == stats_digest(stats), || {
            "metro: serial and parallel engine runs differ".into()
        });
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = nproc.clamp(1, o.per_domain.len().max(1));
        let loads: Vec<f64> = o.per_domain.iter().map(|d| d.attempts as f64).collect();
        let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        let max_load = loads.iter().copied().fold(0.0, f64::max);

        m.set("net.engine.parallel_s", parallel_s, "s");
        m.set("net.engine.serial_s", serial_s, "s");
        m.set(
            "net.engine.attempts_per_s",
            stats.attempts as f64 / parallel_s,
            "attempts/s",
        );
        m.set(
            "net.engine.parallel_efficiency",
            serial_s / (workers as f64 * parallel_s),
            "ratio",
        );
        m.set(
            "net.engine.domain_load_max_mean",
            max_load / mean_load.max(f64::MIN_POSITIVE),
            "ratio",
        );
        m.set("net.engine.attempts", stats.attempts as f64, "count");
        m.set("net.engine.delivered", stats.delivered as f64, "count");
        m.set("net.engine.corrupt", stats.corrupt as f64, "count");
        m.set("net.engine.collided", stats.collided as f64, "count");
        m.set(
            "net.engine.delivered_ratio",
            stats.delivered as f64 / stats.attempts.max(1) as f64,
            "ratio",
        );
        m.set("net.topology.build_s", t.total_s("net.topology.build"), "s");
        m.set("workload.trace_gen_s", t.total_s("workload.trace_gen"), "s");
        m.set("workload.arrivals", s.arrivals as f64, "count");
        link_call_metrics(collector, m);
        let cfg = s.sim.plan().network_config();
        probes::net_link(t, cfg.packet_bits, cfg.coding, m);
    }
}
