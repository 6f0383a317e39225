//! Campaign-engine integration tests (ISSUE 4): resumability, shard
//! independence, and the bench-check gate logic on campaign summaries.
//!
//! The guarantees under test are exactly the acceptance criteria:
//!
//! * an interrupted campaign (stream file cut mid-run, even mid-*line*)
//!   resumed with the same spec produces a **byte-identical** final JSONL
//!   to an uninterrupted run;
//! * the union of all shards' results equals the unsharded run's results;
//! * `bench-check` passes a summary against itself and fails it when a
//!   deterministic metric is artificially regressed 2×, while time
//!   metrics stay advisory.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use cmp_platform::TopologyKind;
use ea_bench::bench_check::{compare, parse_bench_metrics, Status};
use ea_bench::campaign::{
    merge_shards, run_campaign, summary_json, CampaignSpec, JobRecord, Shard,
};
use spg::generate::families::FamilyKind;

/// A fresh scratch directory per test invocation.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "spg-cmp-campaign-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small but non-trivial spec: 3 families × 2 sizes × 2 topologies ×
/// 2 solvers = 24 jobs, small graphs, fast solvers.
fn test_spec() -> CampaignSpec {
    CampaignSpec {
        name: "itest".into(),
        families: vec![
            FamilyKind::DeepChain,
            FamilyKind::WideForkJoin,
            FamilyKind::Unbalanced,
        ],
        sizes: vec![8, 14],
        seeds: vec![2011],
        topologies: vec![TopologyKind::Mesh, TopologyKind::Ring],
        routings: vec![None],
        solvers: vec!["greedy".into(), "random".into()],
        grid: (2, 2),
        utilisations: vec![0.3],
        width: 3,
        depth: 2,
    }
}

#[test]
fn interrupted_campaign_resumes_to_byte_identical_final_jsonl() {
    let spec = test_spec();

    // Uninterrupted reference run.
    let full_dir = scratch("full");
    let full = run_campaign(&spec, &full_dir, Shard::default()).unwrap();
    assert_eq!(full.fresh, 24);
    let reference = fs::read(&full.final_path).unwrap();
    assert!(!reference.is_empty());

    // "Kill" simulation: keep the header plus the first 9 record lines
    // plus one line truncated mid-write, then restart the campaign on
    // that directory.
    let cut_dir = scratch("cut");
    fs::create_dir_all(&cut_dir).unwrap();
    let stream = fs::read_to_string(&full.stream_path).unwrap();
    let lines: Vec<&str> = stream.lines().collect();
    let mut partial: String = lines[..10].join("\n"); // header + 9 records
    partial.push('\n');
    partial.push_str(&lines[10][..lines[10].len() / 2]); // torn line, no newline
    fs::write(cut_dir.join("itest.jsonl"), &partial).unwrap();

    let resumed = run_campaign(&spec, &cut_dir, Shard::default()).unwrap();
    assert_eq!(resumed.resumed, 9, "the 9 complete lines must be reused");
    assert_eq!(resumed.fresh, 15, "the torn line must be recomputed");
    let resumed_bytes = fs::read(&resumed.final_path).unwrap();
    assert_eq!(
        resumed_bytes, reference,
        "resumed final JSONL must be byte-identical to the uninterrupted run"
    );

    // Idempotence: running again recomputes nothing and changes nothing.
    let again = run_campaign(&spec, &cut_dir, Shard::default()).unwrap();
    assert_eq!(again.fresh, 0);
    assert_eq!(again.resumed, 24);
    assert_eq!(fs::read(&again.final_path).unwrap(), reference);

    let _ = fs::remove_dir_all(&full_dir);
    let _ = fs::remove_dir_all(&cut_dir);
}

#[test]
fn sharded_campaign_equals_unsharded() {
    let spec = test_spec();
    let full_dir = scratch("unsharded");
    let full = run_campaign(&spec, &full_dir, Shard::default()).unwrap();
    let mut reference: Vec<String> = fs::read_to_string(&full.final_path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    reference.sort();

    let shard_dir = scratch("sharded");
    let mut merged: Vec<String> = Vec::new();
    for index in 0..3 {
        let shard = Shard { index, count: 3 };
        let out = run_campaign(&spec, &shard_dir, shard).unwrap();
        assert!(out.fresh > 0, "every shard owns some jobs");
        merged.extend(
            fs::read_to_string(&out.final_path)
                .unwrap()
                .lines()
                .map(str::to_string),
        );
    }
    merged.sort();
    assert_eq!(
        merged, reference,
        "the union of the shards must equal the unsharded run"
    );

    let _ = fs::remove_dir_all(&full_dir);
    let _ = fs::remove_dir_all(&shard_dir);
}

#[test]
fn resume_under_a_changed_spec_is_refused() {
    // Job keys do not encode the grid; the stream-file header does.
    // Changing it under the same name + output dir must refuse to resume
    // instead of silently mixing incompatible results.
    let spec = test_spec();
    let dir = scratch("respec");
    run_campaign(&spec, &dir, Shard::default()).unwrap();

    let mut regridded = spec.clone();
    regridded.grid = (2, 3);
    let err = run_campaign(&regridded, &dir, Shard::default()).unwrap_err();
    assert!(err.contains("different campaign spec"), "{err}");

    // The utilisation, by contrast, is a sweep axis encoded in the job
    // keys since the u-axis schema bump: re-targeting it does not clash
    // with the recorded stream, it just runs the (all-new) keys.
    let mut retargeted = spec.clone();
    retargeted.utilisations = vec![0.6];
    let out = run_campaign(&retargeted, &dir, Shard::default()).unwrap();
    assert_eq!(out.resumed, 0, "u=0.6 keys are disjoint from u=0.3 keys");
    assert_eq!(out.fresh, 24);
    assert!(out.records.iter().all(|r| r.key.contains("/u0.6/")));

    // The unchanged spec still resumes cleanly.
    let again = run_campaign(&spec, &dir, Shard::default()).unwrap();
    assert_eq!(again.fresh, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stream_without_a_valid_header_is_refused() {
    // A non-empty stream whose first line is not a parseable header (torn
    // header write, or a foreign file) cannot be trusted to match the
    // spec: resuming must refuse rather than silently mix results.
    let spec = test_spec();
    let dir = scratch("torn-header");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("itest.jsonl"), "{\"campaign\":\"ites").unwrap();
    let err = run_campaign(&spec, &dir, Shard::default()).unwrap_err();
    assert!(err.contains("no valid campaign header"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn campaign_records_carry_failures_as_data() {
    // An absurdly tight utilisation makes every job infeasible; the
    // campaign must record the failures rather than abort.
    let mut spec = test_spec();
    spec.name = "tight".into();
    spec.utilisations = vec![50.0];
    spec.families = vec![FamilyKind::DeepChain];
    spec.sizes = vec![8];
    let dir = scratch("tight");
    let out = run_campaign(&spec, &dir, Shard::default()).unwrap();
    assert!(!out.records.is_empty());
    for rec in &out.records {
        assert_eq!(rec.energy_j, None, "{}", rec.key);
        assert!(rec.failure.is_some(), "{}", rec.key);
        assert_eq!(rec.utilisation, 50.0, "{}", rec.key);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn summary_is_bench_compatible_and_gates_like_bench_check() {
    let spec = test_spec();
    let dir = scratch("summary");
    let out = run_campaign(&spec, &dir, Shard::default()).unwrap();

    // The emitted summary parses with the same loader bench-check uses
    // for the committed BENCH_*.json files.
    let text = fs::read_to_string(&out.summary_path).unwrap();
    let metrics = parse_bench_metrics(&text).unwrap();
    assert!(
        metrics.iter().any(|m| m.unit == "J"),
        "summary must contain deterministic energy metrics"
    );
    assert!(
        metrics.iter().any(|m| m.unit == "ms"),
        "summary must contain advisory wall-time metrics"
    );

    // Re-summarising the same records reproduces the deterministic
    // metrics: comparing against itself passes the gate...
    let fresh = parse_bench_metrics(&summary_json(&spec, &out.records)).unwrap();
    let fresh_of = |name: &str| fresh.iter().find(|m| m.name == name).map(|m| m.value);
    let checks = compare(&metrics, fresh_of, 0.05);
    assert!(checks.iter().all(|c| c.status != Status::Fail));
    assert!(checks.iter().any(|c| c.status == Status::Pass));

    // ...while a 2x-regressed deterministic metric fails it, and a
    // 10x-regressed wall-time metric stays advisory.
    let mut regressed = metrics.clone();
    for m in &mut regressed {
        if m.unit == "J" {
            m.value *= 2.0;
        }
        if m.unit == "ms" {
            m.value *= 10.0;
        }
    }
    let checks = compare(&regressed, fresh_of, 0.05);
    assert!(checks.iter().any(|c| c.status == Status::Fail));
    assert!(checks
        .iter()
        .filter(|c| c.unit == "ms")
        .all(|c| c.status == Status::Advisory));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn merge_shards_reassembles_the_unsharded_final() {
    let spec = test_spec();
    let full_dir = scratch("merge-ref");
    let full = run_campaign(&spec, &full_dir, Shard::default()).unwrap();
    let reference = fs::read(&full.final_path).unwrap();

    // Three shards run "on different machines" (separate dirs), merged.
    let mut inputs = Vec::new();
    let mut shard_dirs = Vec::new();
    for index in 0..3 {
        let dir = scratch(&format!("merge-shard{index}"));
        let out = run_campaign(&spec, &dir, Shard { index, count: 3 }).unwrap();
        inputs.push(out.stream_path.clone());
        shard_dirs.push(dir);
    }
    let merge_dir = scratch("merge-out");
    let merged = merge_shards(&spec, &inputs, &merge_dir).unwrap();
    assert_eq!(merged.records, 24);
    assert_eq!(merged.per_input.iter().sum::<usize>(), 24);
    assert_eq!(
        fs::read(&merged.final_path).unwrap(),
        reference,
        "merged shard artifacts must equal the unsharded final file byte for byte"
    );
    // The merged summary parses like any committed BENCH file.
    let metrics = parse_bench_metrics(&fs::read_to_string(&merged.summary_path).unwrap()).unwrap();
    assert!(metrics.iter().any(|m| m.unit == "J"));

    // Overlap: the same shard twice is rejected.
    let overlap = vec![inputs[0].clone(), inputs[0].clone(), inputs[1].clone()];
    let err = merge_shards(&spec, &overlap, &merge_dir).unwrap_err();
    assert!(err.contains("overlapping"), "{err}");

    // Missing: an incomplete shard set is rejected with the missing count.
    let err = merge_shards(&spec, &inputs[..2], &merge_dir).unwrap_err();
    assert!(err.contains("missing"), "{err}");

    // Foreign: files from a different spec are rejected.
    let mut other = spec.clone();
    other.utilisations = vec![0.5];
    let err = merge_shards(&other, &inputs, &merge_dir).unwrap_err();
    assert!(err.contains("not in campaign"), "{err}");

    // Fingerprint: the grid is not in the keys, only in the stream
    // header — merging streams recorded on a different platform must be
    // refused like the resume path refuses them.
    let mut regridded = spec.clone();
    regridded.grid = (2, 3);
    let err = merge_shards(&regridded, &inputs, &merge_dir).unwrap_err();
    assert!(err.contains("different campaign spec"), "{err}");

    let _ = fs::remove_dir_all(&full_dir);
    let _ = fs::remove_dir_all(&merge_dir);
    for dir in shard_dirs {
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn utilisation_axis_expands_and_records_per_u_jobs() {
    // Two utilisations double the job list, give disjoint key sets, and
    // tighter u never yields lower energy for the same (workload, solver).
    let mut spec = test_spec();
    spec.name = "uaxis".into();
    spec.families = vec![FamilyKind::DeepChain];
    spec.sizes = vec![8];
    spec.topologies = vec![TopologyKind::Mesh];
    spec.utilisations = vec![0.2, 0.4];
    let dir = scratch("uaxis");
    let out = run_campaign(&spec, &dir, Shard::default()).unwrap();
    assert_eq!(out.records.len(), 4, "1 family x 1 size x 2 u x 2 solvers");
    for rec in &out.records {
        assert!(rec.key.contains(&format!("/u{}/", rec.utilisation)));
        assert!(rec.period_s > 0.0);
    }
    // Period halves when utilisation doubles (same workload).
    let loose = out.records.iter().find(|r| r.utilisation == 0.2).unwrap();
    let tight = out.records.iter().find(|r| r.utilisation == 0.4).unwrap();
    assert!((loose.period_s / tight.period_s - 2.0).abs() < 1e-9);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn budget_failures_record_structured_telemetry() {
    // DPA1D with its default caps on a high-elevation TGFF-mixed workload
    // is the paper's §6.2.1 cost wall; at campaign scale the wall shows up
    // as enumerate-phase budget records with cap and count — the fields
    // the elevation-vs-cost plot reads straight from the JSONL.
    //
    // The counts are exact lattice sizes. A 60-wide fork-join of 62 stages
    // (one inner stage per branch) holds 2^60 + 2 ideals, which saturates
    // at 2^53: the largest count the JSONL's f64 numbers carry exactly.
    for (size, width, exact) in [(40, 12, None), (62, 60, Some(1u64 << 53))] {
        let mut spec = test_spec();
        spec.name = "wall".into();
        spec.families = vec![FamilyKind::WideForkJoin];
        spec.sizes = vec![size];
        spec.width = width;
        spec.depth = 1;
        spec.topologies = vec![TopologyKind::Mesh];
        spec.solvers = vec!["dpa1d".into()];
        let dir = scratch("wall");
        let out = run_campaign(&spec, &dir, Shard::default()).unwrap();
        let budget_recs: Vec<_> = out
            .records
            .iter()
            .filter(|r| r.fail_phase.is_some())
            .collect();
        assert!(
            !budget_recs.is_empty(),
            "a {width}-wide fork-join must blow DPA1D's ideal cap"
        );
        for rec in budget_recs {
            assert_eq!(rec.fail_phase.as_deref(), Some("enumerate"));
            assert_eq!(rec.fail_cap, Some(60_000));
            assert!(rec.fail_count.unwrap() > 60_000);
            if let Some(exact) = exact {
                assert_eq!(rec.fail_count, Some(exact));
            }
            // The structured fields survive the JSONL round trip exactly.
            let parsed = JobRecord::parse(&rec.canonical_line()).unwrap();
            assert_eq!(parsed.fail_cap, rec.fail_cap);
            assert_eq!(parsed.fail_count, rec.fail_count);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn stream_lines_parse_back_to_the_recorded_energies() {
    // The stream file is the only thing that survives a kill; its lines
    // must reproduce the in-memory records exactly (modulo ordering).
    let spec = test_spec();
    let dir = scratch("parse");
    let out = run_campaign(&spec, &dir, Shard::default()).unwrap();
    let stream = fs::read_to_string(&out.stream_path).unwrap();
    let mut parsed: Vec<JobRecord> = stream.lines().filter_map(JobRecord::parse).collect();
    parsed.sort_by(|a, b| a.key.cmp(&b.key));
    assert_eq!(parsed.len(), out.records.len());
    for (p, r) in parsed.iter().zip(&out.records) {
        assert_eq!(p.key, r.key);
        assert_eq!(
            p.energy_j.map(f64::to_bits),
            r.energy_j.map(f64::to_bits),
            "{}",
            p.key
        );
        assert_eq!(p.failure, r.failure, "{}", p.key);
    }
    let _ = fs::remove_dir_all(&dir);
}
