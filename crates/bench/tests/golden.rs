//! Golden-output regression tests: the harvest-distance study under the
//! repro binary's default seed must keep producing the paper-pinned
//! figures.
//!
//! The pinned row is the 1 m → 24.1 FPS "NN only" cell of
//! `repro_output.txt` (the IISWC'17 harvest-distance table). The NN-only
//! energy is dominated by the deterministic per-frame inference cost, so
//! this figure is stable to three significant digits across workload
//! seeds; any drift means either the RNG stream or the energy model
//! changed, and the change must be acknowledged here.

use incam_bench::experiments::harvest;

/// Seed of the committed `repro_output.txt` run (the repro binary's
/// default).
const REPRO_SEED: u64 = 2017;

fn harvest_table() -> String {
    harvest::run(REPRO_SEED, false)
}

/// Extracts the cell at `column` of the row starting with `prefix`.
fn cell(table: &str, prefix: &str, column: usize) -> String {
    let row = table
        .lines()
        .find(|l| l.trim_start().starts_with(prefix))
        .unwrap_or_else(|| panic!("no row starting with {prefix:?} in:\n{table}"));
    row.split_whitespace()
        .nth(column)
        .unwrap_or_else(|| panic!("row {row:?} has no column {column}"))
        .to_string()
}

#[test]
fn harvest_distance_study_matches_golden_figures() {
    let table = harvest_table();

    // The headline cell: at 1 m the reader delivers 400 uW and NN-only
    // authentication sustains 24.1 FPS.
    assert_eq!(cell(&table, "1.00", 1), "400.000");
    assert_eq!(cell(&table, "1.00", 2), "uW");
    let nn_only_1m: f64 = cell(&table, "1.00", 3).parse().expect("numeric FPS");
    assert!(
        (nn_only_1m - 24.1).abs() < 0.25,
        "1 m NN-only FPS drifted: {nn_only_1m} (golden 24.1)"
    );

    // Harvested power falls with distance squared, so NN-only FPS at
    // 0.5 m must be 4x the 1 m figure.
    let nn_only_half_m: f64 = cell(&table, "0.500", 3).parse().expect("numeric FPS");
    assert!(
        (nn_only_half_m / nn_only_1m - 4.0).abs() < 0.05,
        "inverse-square scaling broken: {nn_only_half_m} vs {nn_only_1m}"
    );

    // At 6 m NN-only drops below the 1 FPS continuous-authentication
    // line and the table must flag it.
    let six_m_row = table
        .lines()
        .find(|l| l.trim_start().starts_with("6.00"))
        .expect("6 m row");
    assert!(
        six_m_row.contains("(sub-1)"),
        "missing sub-1 flag: {six_m_row}"
    );

    // Adding early-exit blocks (FD, then MD+FD) can only raise the
    // sustainable frame rate.
    let fd_nn: f64 = cell(&table, "1.00", 4).parse().expect("numeric FPS");
    let md_fd_nn: f64 = cell(&table, "1.00", 5).parse().expect("numeric FPS");
    assert!(nn_only_1m < fd_nn && fd_nn < md_fd_nn);
}

#[test]
fn harvest_distance_study_is_bit_stable() {
    // Byte-identical across runs in the same build: the study must not
    // read clocks, HashMap iteration order, or any other ambient state.
    assert_eq!(harvest_table(), harvest_table());
}

mod fig10_golden {
    //! Pins the paper's Fig. 10 nine-configuration table as produced by
    //! `core::explore` alone: the VR binding space enumerated under the
    //! paper's coupling predicate on the 25 GbE uplink, with no
    //! VR-crate analysis code in the loop beyond the space definition.

    use incam_core::link::Link;
    use incam_core::units::Fps;
    use incam_vr::analysis::VrModel;
    use incam_vr::configs::PipelineConfig;

    /// The figure's total-FPS column, in figure order (S~, SB1~, SB1B2~,
    /// then cut 3 and cut 4 with depth on CPU/GPU/FPGA).
    const GOLDEN_TOTALS: [f64; 9] = [15.8, 15.8, 3.95, 0.09, 5.27, 5.27, 0.09, 11.2, 31.6];

    #[test]
    fn fig10_reproduced_through_the_explorer_alone() {
        let model = VrModel::paper_default();
        let space = model.binding_space();
        let link = Link::ethernet_25g();
        let rows: Vec<_> = space
            .explore(&link)
            .filter(|row| PipelineConfig::paper_coupling(&row.config))
            .collect();
        assert_eq!(rows.len(), 9, "Fig. 10 has nine configurations");

        for (row, golden) in rows.iter().zip(GOLDEN_TOTALS) {
            let got = row.total().fps();
            assert!(
                (got - golden).abs() / golden < 0.02,
                "{}: total {got} FPS drifted from golden {golden}",
                PipelineConfig::from_configuration(&row.config)
            );
            // total = min(compute, communication), per the paper's model
            let expected = row.compute.fps().min(row.communication.fps());
            assert!((got - expected).abs() < 1e-9);
        }

        // the 30 FPS verdict: exactly one configuration is real-time,
        // the fully in-camera pipeline with depth + stitching on FPGAs
        let real_time: Vec<String> = rows
            .iter()
            .filter(|r| r.meets(Fps::new(30.0)))
            .map(|r| PipelineConfig::from_configuration(&r.config).label())
            .collect();
        assert_eq!(real_time, ["SB1B2B3FB4F~"]);
    }
}

mod fleet_golden {
    //! Pins the canonical fleet scenario (1000 WISPCams on the default
    //! shared spectrum and ingest tier for 10 s) to exact counters. The
    //! discrete-event simulator is a pure function of the seed, so every
    //! counter is exact — any drift means the event model, the spectrum
    //! or ingest policy, the trace pool, or the re-search loop changed,
    //! and the change must be acknowledged here.

    use incam_bench::experiments::fleet;

    use super::REPRO_SEED;

    #[test]
    fn canonical_fleet_scenario_matches_golden_counters() {
        let r = fleet::canonical_report(REPRO_SEED);
        assert_eq!(r.cameras, fleet::CANONICAL_CAMERAS);
        assert_eq!(r.frames_captured, 10_000);
        assert_eq!(r.frames_skipped, 8_267);
        assert_eq!(r.frames_admitted, 1_733);
        assert_eq!(r.frames_delivered, 733);
        assert_eq!(r.frames_dropped_link, 0);
        assert_eq!(r.frames_dropped_ingest, 0);
        assert_eq!(r.frames_in_flight, 1_000);
        assert_eq!(r.link_retries, 38);
        assert_eq!(r.re_searches, 733);
        assert_eq!(r.cut_changes, 505);
        assert_eq!(r.ingest_batches, 32);
        // The headline adaptation: about half the fleet has re-selected
        // the one-byte verdict cut by the end of the horizon.
        assert_eq!(r.cut_histogram, vec![495, 0, 0, 505]);
        assert!(r.conserves());
        // The digest folds every counter (including the energy bit
        // patterns), so this single value subsumes the lines above.
        assert_eq!(r.digest(), 0x8c87_4591_af5b_56c8);
    }

    #[test]
    fn canonical_fleet_scenario_is_bit_stable() {
        let a = fleet::canonical_report(REPRO_SEED).render();
        let b = fleet::canonical_report(REPRO_SEED).render();
        assert_eq!(a, b);
    }
}

mod chaos_golden {
    //! Pins the canonical chaos scenario (ISSUE: 5 % bursty loss on the
    //! VR uplink, WISPCam at 2 m under the canonical RF fade) to exact
    //! `DegradationReport` / `DegradedReport` counters. Fault traces and
    //! retry schedules are pure functions of the seed, so every counter
    //! is exact — any drift means the fault models, the retry policy, or
    //! the RNG stream changed, and the change must be acknowledged here.

    use incam_bench::experiments::chaos;
    use incam_wispcam::runtime::RecoveryPolicy;
    use incam_wispcam::workload::TrainEffort;

    use super::REPRO_SEED;

    /// VR frames in the pinned scenario (the repro binary's --quick
    /// count; determinism holds at any length).
    const VR_FRAMES: u64 = 150;
    /// FA frames in the pinned scenario.
    const FA_FRAMES: usize = 60;

    #[test]
    fn canonical_vr_scenario_matches_golden_counters() {
        let r = chaos::canonical_vr_report(REPRO_SEED, VR_FRAMES);
        assert_eq!(r.frames_attempted, 150);
        assert_eq!(r.frames_completed, 146);
        assert_eq!(r.frames_dropped_compute, 0);
        assert_eq!(r.frames_dropped_link, 4);
        assert_eq!(r.compute_retries, 1);
        assert_eq!(r.link_retries, 21);
        // FPS is a float, so pin it through the report's own 3-sig-digit
        // rendering rather than a bit pattern.
        assert_eq!(incam_core::report::sig3(r.effective_fps.fps()), "3.17");
        assert_eq!(incam_core::report::sig3(r.ideal_fps.fps()), "5.27");
    }

    #[test]
    fn adaptive_cut_policy_survived_the_search_engine_port() {
        // PR 10 regression witness: the adaptive-cut policy now
        // re-ranks a committed held-cut frontier
        // (`IncrementalSearch::over_held_cuts`) instead of re-running
        // the old from-scratch loop over the held cuts. The port is
        // byte-preserving, so these counters are the *same* numbers the
        // pre-engine code produced — any drift here means the
        // incremental layer stopped agreeing with exhaustive search.
        use incam_core::link::Link;
        use incam_vr::analysis::VrModel;
        use incam_vr::degrade::{run_policy, GracefulPolicy};
        let r = run_policy(
            &VrModel::paper_default(),
            &chaos::canonical_vr_config(),
            &Link::ethernet_25g(),
            &chaos::canonical_vr_scenario(REPRO_SEED, VR_FRAMES),
            GracefulPolicy::AdaptiveCut,
        );
        assert_eq!(r.frames_attempted, 150);
        assert_eq!(r.frames_completed, 146);
        assert_eq!(r.frames_dropped_link, 4);
        assert_eq!(r.link_retries, 21);
        assert_eq!(incam_core::report::sig3(r.effective_fps.fps()), "14.9");
    }

    #[test]
    fn canonical_wispcam_scenario_matches_golden_counters() {
        let outcomes = chaos::fa_frame_trace(REPRO_SEED, FA_FRAMES, TrainEffort::Quick);

        let ck = chaos::canonical_wispcam_report(&outcomes, REPRO_SEED);
        assert_eq!(ck.frames_total, 60);
        assert_eq!(ck.frames_completed, 60);
        assert_eq!(ck.periods, 66);
        assert_eq!(ck.outage_periods, 20);
        assert_eq!(ck.stalled_periods, 6);
        assert_eq!(ck.restarts, 0);
        assert_eq!(ck.checkpoint_saves, 240);
        assert_eq!(ck.wasted.joules(), 0.0);

        let rs = chaos::wispcam_report(
            &outcomes,
            REPRO_SEED,
            chaos::CANONICAL_DISTANCE_M,
            RecoveryPolicy::RestartFrame,
        );
        assert_eq!(rs.frames_completed, 60);
        assert_eq!(rs.periods, 198);
        assert_eq!(rs.stalled_periods, 138);
        assert_eq!(rs.restarts, 90);
        assert_eq!(rs.checkpoint_saves, 0);
        assert!(rs.wasted.joules() > 0.0);

        // The headline claim: on the same fade, checkpointing recovers
        // ~3x the frame rate and wastes nothing.
        assert!(ck.achieved_fps.fps() > 2.5 * rs.achieved_fps.fps());
    }
}

mod verify_golden {
    //! Pins the canonical verify scenario (16 cameras x 40 requests,
    //! all-local plan, canonical chaos mix) to exact counters. The
    //! service loop, fault traces, probe pool, and embedding head are
    //! all pure functions of the seed, so every counter is exact — any
    //! drift means the alignment, the embedding head, the matcher, the
    //! retry/breaker policy, or a fault model changed, and the change
    //! must be acknowledged here.

    use incam_bench::experiments::verify;

    use super::REPRO_SEED;

    #[test]
    fn canonical_chaos_verify_matches_golden_counters() {
        let r = verify::canonical_chaos_report(REPRO_SEED);
        assert_eq!(r.service.requests, 640);
        assert_eq!(r.service.accepts, 385);
        assert_eq!(r.service.rejects, 208);
        // breaker-open, queue-full, unknown-user, align-failed,
        // embed-failed, compute-exhausted, link-lost, deadline-missed
        assert_eq!(r.service.fallbacks, [0, 0, 0, 0, 0, 20, 27, 0]);
        assert_eq!(r.service.breaker_trips, 0);
        assert_eq!(r.service.compute_retries, 88);
        assert_eq!(r.service.link_retries, 176);
        assert_eq!(r.service.deadline_hits, 593);
        assert!(r.service.conserves());
        // The fail-closed headline: the chaos mix costs recall, never
        // precision — not one of the 128 impostor probes is accepted.
        assert_eq!(r.genuine, (385, 512));
        assert_eq!(r.impostor, (0, 128));
        // The digest folds the service digest and every per-camera SLO
        // counter, so this single value subsumes the lines above.
        assert_eq!(r.digest(), 0x0503_9034_528f_de9d);
    }

    #[test]
    fn canonical_chaos_verify_is_bit_stable() {
        let a = verify::canonical_chaos_report(REPRO_SEED).render();
        let b = verify::canonical_chaos_report(REPRO_SEED).render();
        assert_eq!(a, b);
    }
}
