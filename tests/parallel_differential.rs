//! Differential testing of the parallel repair layer: `repair_batch`
//! must be **byte-identical** to request-by-request repair for every
//! worker count, across seeded random-edit scenarios.

use mmtf::dist::Delta;
use mmtf::gen::{feature_workload, random_edits, FeatureSpec};
use mmtf::model::text::print_model;
use mmtf::prelude::*;

/// The random-edit scenarios: seeded feature workloads driven into
/// arbitrary states by seeded random edit scripts on every component.
fn random_edit_requests() -> (std::sync::Arc<Hir>, Vec<RepairRequest>) {
    let mut requests = Vec::new();
    let mut hir = None;
    for seed in 0..8u64 {
        let w = feature_workload(FeatureSpec {
            n_features: 3,
            k_configs: 2,
            mandatory_ratio: 0.4,
            select_prob: 0.4,
            seed: seed * 11 + 1,
        });
        hir.get_or_insert(w.hir.clone());
        let mut models = w.models;
        // One short edit script on one component per request (cycling
        // through the tuple): enough to reach arbitrary inconsistent
        // states while keeping minimal repairs within the cost bound.
        let m = (seed as usize) % models.len();
        let mut delta = Delta::new();
        for op in random_edits(&models[m], 2, seed * 31 + m as u64) {
            delta.push(op);
        }
        delta.apply(&mut models[m]).expect("generated edits replay");
        requests.push(RepairRequest {
            models,
            targets: mmtf::deps::DomSet::full(3),
        });
    }
    (hir.expect("at least one scenario"), requests)
}

/// Bounds that keep adversarial random states cheap: differential
/// equality — not repair depth — is what this suite exercises.
fn bounded() -> RepairOptions {
    RepairOptions {
        max_cost: 8,
        max_states: 20_000,
        ..RepairOptions::default()
    }
}

/// Renders an outcome canonically: cost, every model's exact textual
/// form, and the edit scripts. Two outcomes render equal iff they are
/// byte-identical.
fn render(out: &Result<Option<RepairOutcome>, mmtf::enforce::RepairError>) -> String {
    match out {
        Err(e) => format!("error: {e:?}"),
        Ok(None) => "unrepairable".into(),
        Ok(Some(o)) => {
            let mut s = format!("cost {}\n", o.cost);
            for m in &o.models {
                s.push_str(&print_model(m));
                s.push('\n');
            }
            for d in &o.deltas {
                s.push_str(&d.to_string());
                s.push('\n');
            }
            s
        }
    }
}

/// `repair_batch` with 1, 2 and 4 workers returns byte-identical
/// outcomes to the engine run request by request.
#[test]
fn search_batch_is_byte_identical_to_sequential() {
    let (hir, requests) = random_edit_requests();
    let engine = SearchEngine::new(bounded());
    // Ground truth: the engine, request by request.
    let sequential: Vec<String> = requests
        .iter()
        .map(|r| render(&engine.repair(&hir, &r.models, r.targets)))
        .collect();
    assert!(
        sequential.iter().any(|s| s.starts_with("cost")),
        "the scenario set must contain repairable requests"
    );
    for jobs in [1usize, 2, 4] {
        let batch = engine.repair_batch(&hir, &requests, jobs);
        assert_eq!(batch.len(), requests.len());
        for (i, out) in batch.iter().enumerate() {
            assert_eq!(render(out), sequential[i], "jobs={jobs} request {i}");
        }
    }
}

/// The SAT engine's batch fan-out is outcome-preserving too.
#[test]
fn sat_batch_is_byte_identical_to_sequential() {
    let (hir, requests) = random_edit_requests();
    let engine = SatEngine::new(bounded());
    let sequential: Vec<String> = requests
        .iter()
        .map(|r| render(&engine.repair(&hir, &r.models, r.targets)))
        .collect();
    for jobs in [2usize, 4] {
        let batch = engine.repair_batch(&hir, &requests, jobs);
        for (i, out) in batch.iter().enumerate() {
            assert_eq!(render(out), sequential[i], "jobs={jobs} request {i}");
        }
    }
}

/// Batch costs agree with the SAT oracle wherever both engines find a
/// repair (the engines explore different candidate spaces, so
/// repairability itself may differ on adversarial random states; cost
/// agreement on common successes is the §3 least-change contract).
#[test]
fn batch_costs_agree_with_sat_oracle() {
    let (hir, requests) = random_edit_requests();
    let search = SearchEngine::new(bounded());
    let sat = SatEngine::new(bounded());
    let batch = search.repair_batch(&hir, &requests, 4);
    for (i, (req, out)) in requests.iter().zip(&batch).enumerate() {
        let (Ok(Some(a)), Ok(Some(b))) = (out, &sat.repair(&hir, &req.models, req.targets)) else {
            continue;
        };
        assert_eq!(a.cost, b.cost, "request {i}: search vs sat minimal cost");
        let t = Transformation::from_hir(hir.clone());
        assert!(t.check(&a.models).unwrap().consistent(), "request {i}");
    }
}
