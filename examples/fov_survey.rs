//! Directional (field-of-view) survey at the paper's three locations —
//! the experiment behind Figure 1 — with an ASCII polar rendering and a
//! comparison of all four FoV estimators.
//!
//! ```sh
//! cargo run --release --example fov_survey [seed]
//! ```

use aircal::prelude::*;
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_core::fov::FovMethod;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    for scenario in paper_scenarios() {
        let traffic = TrafficSim::generate(
            TrafficConfig {
                count: 70,
                ..TrafficConfig::paper_default(scenario.site.position)
            },
            seed,
        );
        let result = run_survey(
            &scenario.world,
            &scenario.world.index(),
            &scenario.site,
            &traffic,
            &SurveyConfig::default(),
            seed,
        );

        println!("================================================================");
        println!(
            "site '{}' — {} aircraft in 100 km, {} observed, {} messages",
            scenario.site.name,
            result.points.len(),
            result.points.iter().filter(|p| p.observed).count(),
            result.total_messages,
        );
        render_polar(&result);

        println!("  estimator comparison (truth: {:.0}° @ {:.0}°):",
            scenario.expected_fov.width_deg, scenario.expected_fov.center_deg());
        for method in [
            FovMethod::default_histogram(),
            FovMethod::default_knn(),
            FovMethod::default_svm(),
            FovMethod::default_logistic(),
        ] {
            let est = FovEstimator::new(method).estimate(&result.points);
            println!(
                "    {:17} → {:5.0}° wide @ {:3.0}°   IoU {:.2}",
                method.name(),
                est.estimated.width_deg,
                est.estimated.center_deg(),
                est.iou(&scenario.expected_fov),
            );
        }
        println!();
    }
}

/// A compact text version of Figure 1: rows = range rings, columns =
/// bearing; 'O' = observed aircraft, '.' = missed.
fn render_polar(result: &SurveyResult) {
    const COLS: usize = 36; // 10° per column
    const RINGS: usize = 5; // 20 km per ring
    let mut grid = vec![vec![' '; COLS]; RINGS];
    for p in &result.points {
        let col = ((p.bearing_deg / 10.0) as usize).min(COLS - 1);
        let ring = ((p.range_m / 20_000.0) as usize).min(RINGS - 1);
        let mark = if p.observed { 'O' } else { '.' };
        // Observed wins the cell if both kinds land there.
        if grid[ring][col] != 'O' {
            grid[ring][col] = mark;
        }
    }
    println!("         N                   E                   S                   W");
    for (i, row) in grid.iter().enumerate() {
        let label = format!("{:>3} km", (i + 1) * 20);
        println!("  {label} |{}|", row.iter().collect::<String>());
    }
    println!("         (O = ADS-B received, . = aircraft present but not received)");
}
