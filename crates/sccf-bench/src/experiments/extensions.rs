//! Beyond-paper quality experiments: SCCF over two more inductive
//! backends (plus the learned linear baselines), and SCCF applied to
//! the ranking stage (§V future work).

use sccf_core::IntegratorConfig;
use sccf_data::catalog::{games_sim, ml1m_sim};
use sccf_models::{AvgPoolConfig, AvgPoolDnn, InductiveUiModel, Recommender};
use sccf_util::table::{f4, pct};
use sccf_util::Table;

use crate::harness::{
    build_sccf, eval_test, improvement, max_len_for, prepare, train_config, train_fism,
    HarnessConfig,
};

// --------------------------------------------------- Extended backends

/// Beyond-paper extension: SCCF wrapped around two more inductive UI
/// models (GRU4Rec, Caser — the related-work sequence families, refs
/// \[43\]/\[45\]) plus the learned linear baselines (SLIM, LRec — refs
/// \[14\]/\[18\]). This is the experimental backing for the paper's claim
/// that SCCF "can be seamlessly incorporated into existing inductive UI
/// approaches" (§III): the framework code is untouched, only the backend
/// changes.
pub fn extended(h: &HarnessConfig) -> Vec<Table> {
    use sccf_models::{Caser, CaserConfig, Gru4Rec, Gru4RecConfig, LRec, LinearCfConfig, Slim};
    let mut out = Vec::new();
    for cfg in [ml1m_sim(h.scale), games_sim(h.scale)] {
        eprintln!("[extended] dataset {} ...", cfg.name);
        let prep = prepare(&cfg, h.seed);
        let split = &prep.split;
        let train_seqs: Vec<Vec<u32>> = (0..split.n_users() as u32)
            .map(|u| {
                let mut s = split.train_seq(u).to_vec();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let tc = train_config(h);

        // learned linear baselines (transductive)
        let lin_cfg = LinearCfConfig {
            threads: h.threads,
            ..Default::default()
        };
        let slim = Slim::fit(&train_seqs, split.n_items(), &lin_cfg);
        let lrec = LRec::fit(&train_seqs, split.n_items(), &lin_cfg);
        let slim_res = eval_test(&slim, split, h, "SLIM", &cfg.name);
        let lrec_res = eval_test(&lrec, split, h, "LRec", &cfg.name);

        // extra inductive backends
        let gru = Gru4Rec::train(
            split,
            &Gru4RecConfig {
                train: tc.clone(),
                max_len: max_len_for(&prep.data).min(30),
            },
        );
        let caser = Caser::train(
            split,
            &CaserConfig {
                train: tc,
                ..Default::default()
            },
        );
        let gru_ui = eval_test(&gru, split, h, "GRU4Rec", &cfg.name);
        let caser_ui = eval_test(&caser, split, h, "Caser", &cfg.name);

        let gru_sccf = build_sccf(gru, split, h);
        let caser_sccf = build_sccf(caser, split, h);
        let gru_uu = eval_test(&gru_sccf.uu_scorer(), split, h, "GRU4Rec-UU", &cfg.name);
        let caser_uu = eval_test(&caser_sccf.uu_scorer(), split, h, "Caser-UU", &cfg.name);
        let gru_full = eval_test(&gru_sccf, split, h, "GRU4Rec-SCCF", &cfg.name);
        let caser_full = eval_test(&caser_sccf, split, h, "Caser-SCCF", &cfg.name);

        let mut t = Table::new(
            format!(
                "Extended backends — {} (d={}, β={})",
                cfg.name, h.dim, h.beta
            ),
            &[
                "Metric",
                "SLIM",
                "LRec",
                "GRU4Rec",
                "GRU4Rec-UU",
                "GRU4Rec-SCCF",
                "Improv.",
                "Caser",
                "Caser-UU",
                "Caser-SCCF",
                "Improv.",
            ],
        );
        for &k in &h.ks {
            for metric in ["HR", "NDCG"] {
                let get = |r: &sccf_eval::EvalResult| {
                    if metric == "HR" {
                        r.metrics.hr(k)
                    } else {
                        r.metrics.ndcg(k)
                    }
                };
                t.push(&[
                    format!("{metric}@{k}"),
                    f4(get(&slim_res)),
                    f4(get(&lrec_res)),
                    f4(get(&gru_ui)),
                    f4(get(&gru_uu)),
                    f4(get(&gru_full)),
                    pct(improvement(get(&gru_ui), get(&gru_full))),
                    f4(get(&caser_ui)),
                    f4(get(&caser_uu)),
                    f4(get(&caser_full)),
                    pct(improvement(get(&caser_ui), get(&caser_full))),
                ]);
            }
        }
        out.push(t);
    }
    out
}

// ------------------------------------------------------- Ranking stage

/// The paper's second §V direction: apply SCCF to the *ranking* step.
/// An upstream generator (the YouTube-DNN-like `AvgPoolDnn`, as in the
/// online deployment §IV-F) produces a fixed candidate set per user;
/// three rankers order it:
///
/// 1. **upstream** — the generator's own UI score (production default),
/// 2. **UI-only** — the FISM backend's `m_u·q_i` (what the paper says
///    existing ranking models do),
/// 3. **SCCF ranking stage** — the fused `[m_u ⊕ q_i ⊕ r̃ᵁᴵ ⊕ r̃ᵁᵁ]` MLP.
///
/// Metrics are computed *within* the candidate set over test users whose
/// target was retrieved (coverage is reported separately — the ranking
/// stage cannot fix generation misses).
pub fn ranking(h: &HarnessConfig) -> Vec<Table> {
    use sccf_core::RankingStage;
    use sccf_eval::metrics::{hr_at_k, ndcg_at_k};

    let cfg = ml1m_sim(h.scale);
    eprintln!("[ranking] dataset {} ...", cfg.name);
    let prep = prepare(&cfg, h.seed);
    let split = &prep.split;
    // upstream candidate generator
    let upstream = AvgPoolDnn::train(
        split,
        &AvgPoolConfig {
            train: train_config(h),
            ..Default::default()
        },
    );
    let candidate_n = (split.n_items() / 4).clamp(20, 500);
    let candidates_for = |history: &[u32]| -> Vec<u32> {
        let mut scores = upstream.score_all(0, history);
        for &i in history {
            scores[i as usize] = f32::NEG_INFINITY;
        }
        sccf_util::topk::topk_of_scores(&scores, candidate_n)
            .into_iter()
            .map(|s| s.id)
            .collect()
    };

    // SCCF backend + ranking stage
    let sccf = build_sccf(train_fism(split, train_config(h)), split, h);
    let (stage, used) = RankingStage::train(
        &sccf,
        split,
        |u| candidates_for(split.train_seq(u)),
        IntegratorConfig {
            seed: h.seed,
            verbose: h.verbose,
            ..Default::default()
        },
    );
    eprintln!("[ranking] stage trained on {used} users");

    // evaluation within the candidate set
    let ks = [5usize, 10, 20];
    let mut acc = vec![[0.0f64; 6]; ks.len()]; // hr/ndcg × 3 rankers
    let mut covered = 0usize;
    let mut total = 0usize;
    for u in split.test_users() {
        let hist = split.train_plus_val(u);
        let target = split.test_item(u).unwrap();
        total += 1;
        let cands = candidates_for(&hist);
        if !cands.contains(&target) {
            continue;
        }
        covered += 1;
        let rep = sccf.model().infer_user(&hist);
        // ranker 1: upstream order (already sorted by upstream score)
        let r_up = cands.iter().position(|&i| i == target).unwrap() + 1;
        // ranker 2: UI-only order by the backend's dot product
        let mut by_ui: Vec<(u32, f32)> = cands
            .iter()
            .map(|&i| (i, sccf_tensor::dot(&rep, sccf.model().item_embedding(i))))
            .collect();
        by_ui.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let r_ui = by_ui.iter().position(|&(i, _)| i == target).unwrap() + 1;
        // ranker 3: the SCCF ranking stage
        let r_sccf = stage
            .rank_of_target(&sccf, u, &hist, &cands, target)
            .expect("target is in the candidate set");
        for (row, &k) in acc.iter_mut().zip(&ks) {
            row[0] += hr_at_k(r_up, k);
            row[1] += ndcg_at_k(r_up, k);
            row[2] += hr_at_k(r_ui, k);
            row[3] += ndcg_at_k(r_ui, k);
            row[4] += hr_at_k(r_sccf, k);
            row[5] += ndcg_at_k(r_sccf, k);
        }
    }

    let mut t = Table::new(
        format!(
            "Ranking stage — {} ({} candidates from AvgPoolDnn, within-candidate metrics)",
            cfg.name, candidate_n
        ),
        &[
            "Metric",
            "upstream order",
            "UI-only rank",
            "SCCF rank",
            "Improv. vs UI",
        ],
    );
    let n = covered.max(1) as f64;
    for (row, &k) in acc.iter().zip(&ks) {
        t.push(&[
            format!("HR@{k}"),
            f4(row[0] / n),
            f4(row[2] / n),
            f4(row[4] / n),
            pct(improvement(row[2] / n, row[4] / n)),
        ]);
        t.push(&[
            format!("NDCG@{k}"),
            f4(row[1] / n),
            f4(row[3] / n),
            f4(row[5] / n),
            pct(improvement(row[3] / n, row[5] / n)),
        ]);
    }
    let mut c = Table::new("Ranking stage — coverage", &["statistic", "value"]);
    c.push(&[
        "target retrieved by upstream generator".to_string(),
        format!(
            "{covered}/{total} ({:.1}%)",
            100.0 * covered as f64 / total.max(1) as f64
        ),
    ]);
    c.push(&["stage training users".to_string(), used.to_string()]);
    vec![t, c]
}
