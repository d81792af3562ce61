//! # pstorm-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index):
//!
//! | binary     | reproduces |
//! |------------|------------|
//! | `table6_1` | Table 6.1 — the benchmark inventory |
//! | `table6_2` | Table 6.2 — default-configuration runtimes |
//! | `fig1_3`   | Fig. 1.3 — co-occurrence speedups (RBO / CBO-own / CBO-bigram) |
//! | `fig4_1`   | Fig. 4.1 — 10% profiling vs 1-task sampling overhead |
//! | `fig4_3`   | Fig. 4.3 — map-phase times, word count vs co-occurrence |
//! | `fig4_5`   | Fig. 4.5 — phase-time similarity, co-occurrence vs bigram |
//! | `fig4_6`   | Fig. 4.6 — co-occurrence shuffle times across data sizes |
//! | `fig6_1`   | Fig. 6.1 — matching accuracy vs P-/SP-features |
//! | `fig6_2`   | Fig. 6.2 — matching accuracy vs GBRT 1–4 |
//! | `fig6_3`   | Fig. 6.3 — end-to-end speedups (RBO / SD / DD / NJ) |
//! | `sec5_2_models` | §5.2 — store data-model comparison |
//! | `ablations` | DESIGN.md §3 — matcher/design ablations |
//!
//! Wall-clock timings come from one binary, `perf_report`, which writes
//! `BENCH_tuning_latency.json`.

pub mod accuracy;
pub mod fsck;
pub mod harness;
