//! Designer tooling beyond the three headline tasks: infeasibility
//! diagnosis, incremental layout exploration, plan analytics and the
//! time–space timeline.
//!
//! Run with: `cargo run --release --example diagnostics`

use etcs::prelude::*;
use etcs::sim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();
    let instance = Instance::new(&scenario)?;

    // 1. Why does the schedule fail on pure TTDs?
    match diagnose(&scenario, &VssLayout::pure_ttd(), &config, &Run::default())?.0 {
        Diagnosis::Feasible => println!("diagnosis: schedule works — nothing to explain"),
        Diagnosis::Structural => println!(
            "diagnosis: structural deadlock — no deadline relaxation can help \
             (the paper's Example 2: all four TTDs end up blocked)"
        ),
        Diagnosis::Conflict { names, .. } => {
            println!("diagnosis: conflicting deadlines: {}", names.join(", "))
        }
    }

    // 2. Sweep all single-border layouts incrementally on one solver.
    let mut explorer = LayoutExplorer::new(&scenario, &config)?;
    let candidates = explorer.net().border_candidates();
    println!("\nsingle-border layouts that repair the schedule:");
    for &node in &candidates {
        let layout = VssLayout::with_borders([node]);
        if explorer.admits(&layout) {
            println!("  border at v{} -> feasible", node.0);
        }
    }

    // 3. Which borders of the finest layout are load-bearing?
    let full = VssLayout::full(explorer.net());
    let essential = explorer
        .essential_borders(&full)
        .expect("finest layout admits the schedule");
    println!(
        "\nfinest layout: {} borders, of which {} are essential",
        full.num_borders(),
        essential.len()
    );

    // 4. Plan analytics and the time–space diagram of a generated plan.
    let (outcome, _) = generate(&scenario, &config)?;
    let plan = outcome.plan().expect("feasible");
    println!("\nplan statistics:\n{}", sim::plan_stats(&instance, plan));
    println!("time–space diagram (rows = segments, columns = steps):");
    println!("{}", sim::render_timeline(&instance, plan));

    // 5. The ETCS deployment cost/benefit curve: completion time as a
    //    function of the border budget.
    println!("border-budget trade-off (Pareto front):");
    for point in etcs::border_tradeoff(&scenario, &config, 5)? {
        match point.completion_steps {
            Some(steps) => println!("  <= {} border(s): {} steps", point.max_borders, steps),
            None => println!("  <= {} border(s): infeasible", point.max_borders),
        }
    }
    println!();

    // 6. Compare with the greedy fixed-block dispatcher on the same layout.
    let dispatched = sim::dispatch(&instance, &plan.layout);
    match dispatched.completion_steps() {
        Some(steps) => println!(
            "greedy dispatcher on the same layout: completes in {steps} steps \
             (SAT plan: {})",
            plan.completion_steps(&instance)
        ),
        None => println!(
            "greedy dispatcher on the same layout: fails to complete — global \
             lookahead (the SAT plan) is genuinely needed"
        ),
    }
    Ok(())
}
