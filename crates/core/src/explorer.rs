//! Interactive layout exploration: verify many candidate VSS layouts
//! against one schedule without re-encoding.
//!
//! The scenario is encoded once with *free* border variables
//! ([`TaskKind::Generate`]); each candidate layout is then checked by
//! passing the border assignment as solver *assumptions*. Learnt clauses
//! carry over between queries, so sweeping dozens of layouts (e.g. in a
//! design-space exploration GUI, or the `ablation` bench) costs a fraction
//! of independent [`crate::verify`] calls.

use etcs_network::{NetworkError, NodeId, Scenario, VssLayout};
use etcs_sat::{Lit, SatResult};

use crate::decode::SolvedPlan;
use crate::encoder::{encode, EncoderConfig, Encoding, EncodingStats, TaskKind};
use crate::instance::Instance;

/// Incrementally verifies VSS layouts against a fixed scenario.
///
/// # Examples
///
/// ```
/// use etcs_core::{EncoderConfig, LayoutExplorer};
/// use etcs_network::{fixtures, VssLayout};
///
/// let scenario = fixtures::running_example();
/// let mut explorer = LayoutExplorer::new(&scenario, &EncoderConfig::default())?;
/// assert!(!explorer.admits(&VssLayout::pure_ttd()));
/// let full = VssLayout::full(explorer.net());
/// assert!(explorer.admits(&full));
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
#[derive(Debug)]
pub struct LayoutExplorer {
    inst: Instance,
    enc: Encoding,
    candidates: Vec<NodeId>,
}

impl LayoutExplorer {
    /// Encodes the scenario once, with free border variables.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the scenario is malformed.
    pub fn new(scenario: &Scenario, config: &EncoderConfig) -> Result<Self, NetworkError> {
        let inst = Instance::new(scenario)?;
        let enc = encode(&inst, config, &TaskKind::Generate);
        let candidates = inst.net.border_candidates();
        Ok(LayoutExplorer {
            inst,
            enc,
            candidates,
        })
    }

    /// The discretised network (e.g. for building candidate layouts).
    pub fn net(&self) -> &etcs_network::DiscreteNet {
        &self.inst.net
    }

    /// Encoding size statistics of the underlying instance.
    pub fn stats(&self) -> EncodingStats {
        self.enc.stats
    }

    /// Assumption literals pinning the border variables to `layout`.
    fn layout_assumptions(&self, layout: &VssLayout) -> Vec<Lit> {
        self.candidates
            .iter()
            .map(|&n| {
                let var = self.enc.vars.border[n.index()].expect("candidate has a variable");
                var.lit(layout.borders().contains(&n))
            })
            .collect()
    }

    /// Does the schedule work on `layout`? (Incremental [`crate::verify`].)
    pub fn admits(&mut self, layout: &VssLayout) -> bool {
        self.check(layout).is_some()
    }

    /// Like [`LayoutExplorer::admits`] but returns the witness plan.
    pub fn check(&mut self, layout: &VssLayout) -> Option<SolvedPlan> {
        let assumptions = self.layout_assumptions(layout);
        match self.enc.solver.solve_with(&assumptions) {
            SatResult::Sat(model) => {
                let mut plan = SolvedPlan::decode(&self.inst, &self.enc.vars, &model);
                plan.layout = layout.clone();
                Some(plan)
            }
            SatResult::Unsat { .. } => None,
            SatResult::Unknown => unreachable!("no interrupt is installed"),
        }
    }

    /// Which of a layout's borders are *load-bearing*: removing the border
    /// alone makes the schedule infeasible. Non-essential borders are
    /// candidates for saving axle-counter-free subdivisions.
    ///
    /// Returns `None` if the layout does not admit the schedule at all.
    pub fn essential_borders(&mut self, layout: &VssLayout) -> Option<Vec<NodeId>> {
        if !self.admits(layout) {
            return None;
        }
        let mut essential = Vec::new();
        for &b in layout.borders().clone().iter() {
            let mut without = layout.clone();
            without.remove_border(b);
            if !self.admits(&without) {
                essential.push(b);
            }
        }
        Some(essential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    fn explorer() -> LayoutExplorer {
        LayoutExplorer::new(&fixtures::running_example(), &EncoderConfig::default())
            .expect("valid scenario")
    }

    #[test]
    fn agrees_with_monolithic_verify() {
        let scenario = fixtures::running_example();
        let mut ex = explorer();
        let layouts = [
            VssLayout::pure_ttd(),
            VssLayout::full(ex.net()),
            VssLayout::with_borders([ex.net().border_candidates()[0]]),
        ];
        for layout in layouts {
            let (mono, _) =
                crate::verify(&scenario, &layout, &EncoderConfig::default()).expect("ok");
            assert_eq!(
                ex.admits(&layout),
                mono.is_feasible(),
                "explorer disagrees with verify on {layout}"
            );
        }
    }

    #[test]
    fn witness_plan_uses_the_queried_layout() {
        let mut ex = explorer();
        let full = VssLayout::full(ex.net());
        let plan = ex.check(&full).expect("admits");
        assert_eq!(plan.layout, full);
    }

    #[test]
    fn sweeping_single_border_layouts() {
        // Exactly the layouts whose single border repairs the running
        // example admit the schedule; at least one does (generation found
        // a 1-border repair).
        let mut ex = explorer();
        let candidates = ex.net().border_candidates();
        let admitted: Vec<_> = candidates
            .iter()
            .filter(|&&n| ex.admits(&VssLayout::with_borders([n])))
            .collect();
        assert!(!admitted.is_empty());
        assert!(admitted.len() < candidates.len());
    }

    #[test]
    fn essential_borders_of_the_generated_layout() {
        let scenario = fixtures::running_example();
        let (outcome, _) = crate::generate(&scenario, &EncoderConfig::default()).expect("ok");
        let layout = outcome.plan().expect("feasible").layout.clone();
        let mut ex = explorer();
        let essential = ex.essential_borders(&layout).expect("layout admits");
        // The minimal layout has exactly one border, and it is essential.
        assert_eq!(essential.len(), layout.num_borders());
    }

    #[test]
    fn essential_borders_of_infeasible_layout_is_none() {
        let mut ex = explorer();
        assert_eq!(ex.essential_borders(&VssLayout::pure_ttd()), None);
    }

    #[test]
    fn full_layout_has_mostly_inessential_borders() {
        let mut ex = explorer();
        let full = VssLayout::full(ex.net());
        let essential = ex.essential_borders(&full).expect("admits");
        assert!(essential.len() < full.num_borders());
    }
}
