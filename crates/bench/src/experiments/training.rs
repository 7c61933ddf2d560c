//! Train/test generalization: offline-trained predictors vs the
//! paper's online schemes — the headline study of the train/serve
//! extension.
//!
//! The paper's predictors learn online inside the priced trace, so
//! they can never be *wrong about the workload* — they just start
//! cold. An offline-trained predictor inverts the trade: it starts
//! hot, but everything it knows comes from the training corpus, so the
//! interesting question is generalization. This experiment trains on
//! solo SPEC register streams and then prices both splits:
//!
//! * the **train** rows measure headroom (how much do frozen tables
//!   capture of the traffic they saw?);
//! * the **test** rows measure transfer to a held-out *workload
//!   class* — multi-program interleavings ([`Workload::Mixed`]) whose
//!   quantum switches no solo trace contains — and to an entirely
//!   unseen program, where trained tables are expected to lose to
//!   online adaptation (the honesty row).

use std::sync::Arc;

use buscoding::predict::trained::trained_codec;
use buscoding::{evaluate_blocks, percent_energy_removed, CostModel};
use bustrain::{Role, TrainerConfig};

use crate::experiments::par_map;
use crate::report::{f, Table};
use crate::session::ActivityQuery;
use crate::training::resolve_corpus;
use crate::workloads::Workload;
use crate::Session;

/// Trace cap, matching the other extension studies.
const CAP: usize = 100_000;

/// The paper's static schemes the trained predictor is raced against —
/// one representative per family, at the sizes the paper's evaluation
/// settled on.
const STATIC_SCHEMES: &[&str] = &[
    "window(8)",
    "stride(4)",
    "context-value(28+8 d4096)",
    "context-transition(28+8 d4096)",
    "fcm(2 2^12)",
    "inversion(1ch l1)",
    "workzone(4)",
];

/// The `generalize` experiment: train on the built-in `generalize`
/// corpus's train split, then price every corpus entry under the
/// trained scheme and every static scheme, reporting percent energy
/// removed and who won per row.
pub fn generalize(session: &Session) -> Vec<Table> {
    let corpus = resolve_corpus(session, "generalize").expect("built-in corpus resolves");
    let values = session.values().min(CAP);
    // Train in-memory: the tables go straight into a codec, no artifact
    // file and no global artifact directory involved, so the experiment
    // is safe to run concurrently with anything.
    let tables = Arc::new(
        bustrain::train_corpus(&corpus, session, values, &TrainerConfig::default())
            .expect("the built-in corpus trains"),
    );

    let mut t = Table::new(
        "generalize",
        "Offline-trained predictor vs static paper schemes (train/test split)",
        &[
            "split",
            "workload",
            "trained_removed_pct",
            "best_static",
            "best_static_removed_pct",
            "trained_wins",
        ],
    );
    let entries: Vec<(Role, String)> = corpus
        .entries()
        .iter()
        .map(|e| (e.role, e.workload.clone()))
        .collect();
    let rows = par_map(entries, move |(role, name)| {
        let workload = Workload::parse(&name).expect("corpus workloads parse");
        let trace = session.trace_capped(workload, CAP);
        let baseline = session.baseline_capped(workload, CAP);
        let (mut enc, _dec) = trained_codec(Arc::clone(&tables), CostModel::default());
        let coded = evaluate_blocks(&mut enc, &trace);
        let trained = percent_energy_removed(&coded, &baseline, 1.0);
        let (best_static, best_removed) = STATIC_SCHEMES
            .iter()
            .map(|&scheme| {
                let coded = session.activity(&ActivityQuery::new(scheme, workload).cap(CAP));
                (scheme, percent_energy_removed(&coded, &baseline, 1.0))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("static scheme list is non-empty");
        (role, name, trained, best_static, best_removed)
    });
    for (role, name, trained, best_static, best_removed) in rows {
        t.push(vec![
            role.keyword().to_string(),
            name,
            f(trained, 2),
            best_static.to_string(),
            f(best_removed, 2),
            if trained > best_removed { "yes" } else { "no" }.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance property of the whole train/serve extension: on
    /// at least one held-out (test-split) workload class, the trained
    /// scheme must beat every static paper scheme.
    #[test]
    fn trained_beats_every_static_on_a_held_out_class() {
        let session = Session::builder().values(30_000).build();
        let tables = generalize(&session);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        let rows = &t.rows;
        assert!(rows.len() >= 6, "one row per corpus entry");
        let test_wins = rows
            .iter()
            .filter(|r| r[0] == "test" && r[5] == "yes")
            .count();
        assert!(test_wins >= 1, "no held-out win; rows: {rows:?}");
        // Train rows should be strong too — the tables saw this exact
        // traffic.
        assert!(
            rows.iter()
                .filter(|r| r[0] == "train")
                .all(|r| r[5] == "yes"),
            "trained tables must win on their own training traffic; rows: {rows:?}"
        );
    }
}
