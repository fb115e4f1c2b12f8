//! **Figure 7** — speedup over the best initial-database design across DSE
//! rounds, plus the final-database sizes of Table 1.
//!
//! After each round the top designs are validated with the HLS tool and
//! committed to the database, refining the next round's model (§4.4).

use gnn_dse::dse::DseConfig;
use gnn_dse::rounds::{run_rounds_with_engine, RoundsConfig};
use gnn_dse::ExecEngine;
use gnn_dse_bench::{rule, training_setup, Scale};
use gdse_gnn::ModelKind;
use gnn_dse_bench::{init_obs_from_env, out};
use merlin_sim::MerlinSimulator;

fn main() {
    init_obs_from_env();
    let scale = Scale::from_env();
    out!("Figure 7 — DSE speedup vs best initial-database design (scale: {})", scale.label());
    out!();

    let (kernels, mut db) = training_setup(scale, 42);
    let initial_stats = db.stats();
    let rounds = match scale {
        Scale::Tiny => 2,
        _ => 4,
    };
    let cfg = RoundsConfig {
        rounds,
        model: ModelKind::Full,
        model_cfg: scale.model_config(),
        train_cfg: scale.train_config(),
        dse: DseConfig {
            max_inferences: match scale {
                Scale::Tiny => 1_500,
                Scale::Small => 10_000,
                Scale::Paper => 60_000,
            },
            exhaustive_limit: match scale {
                Scale::Tiny => 3_000,
                _ => 50_000,
            },
            ..DseConfig::default()
        },
        fine_tune: false,
        fine_tune_initial: false,
        stop_after: None,
        initial_model: None,
    };

    let t0 = std::time::Instant::now();
    let sim = MerlinSimulator::new();
    let reports =
        run_rounds_with_engine(&mut db, &kernels, &cfg, &sim, None, false, &ExecEngine::serial())
            .expect("rounds without a checkpoint path cannot fail");

    // Per-kernel speedups per round (the Fig. 7 bars).
    print!("{:<14}", "Kernel");
    for r in &reports {
        print!(" {:>9}", format!("DSE{}", r.round));
    }
    out!();
    rule(14 + 10 * reports.len());
    for (ki, k) in kernels.iter().enumerate() {
        print!("{:<14}", k.name());
        for r in &reports {
            print!(" {:>9.2}", r.kernels[ki].speedup);
        }
        out!();
    }
    rule(14 + 10 * reports.len());
    print!("{:<14}", "average");
    for r in &reports {
        print!(" {:>8.2}x", r.avg_speedup);
    }
    out!();
    out!();

    // Final database sizes (the Table 1 "Final database" rows).
    out!("final database after {} rounds (Table 1 'Final database' rows):", reports.len());
    out!("{:<14} {:>14} {:>14} {:>10} {:>10}", "Kernel", "initial tot", "initial val", "final tot", "final val");
    rule(66);
    let final_stats = db.stats();
    for k in &kernels {
        let init = initial_stats
            .iter()
            .find(|(n, _)| n == k.name())
            .map(|&(_, s)| s)
            .unwrap_or_default();
        let fin = final_stats
            .iter()
            .find(|(n, _)| n == k.name())
            .map(|&(_, s)| s)
            .unwrap_or_default();
        out!(
            "{:<14} {:>14} {:>14} {:>10} {:>10}",
            k.name(),
            init.total,
            init.valid,
            fin.total,
            fin.valid
        );
    }
    out!();
    out!("wall time {:?}", t0.elapsed());
    out!();
    out!("paper reference (Fig. 7 legend): DSE1 0.71x, DSE2 0.82x, DSE3 1.02x, DSE4 1.23x —");
    out!("the DSE should match the initial-database best by round ~3 and beat it after.");
}
