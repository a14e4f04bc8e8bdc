//! The benchmark's own tests, at tiny run lengths. Run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::gate::Fingerprint;
use perfbench::inputs::{Input, Kind, Sizes, Source, Traffic, PARALLELISM};
use perfbench::report::Outcome;
use perfbench::{timed, traced};

const SEED: u64 = 7;

/// Metric names and units listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("metric list is closed")];
    let field = |entry: &str, name: &str| -> String {
        let at = entry
            .find(&format!("\"{name}\""))
            .expect("metric field present");
        let rest = &entry[at + name.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("closed string");
        rest[open..open + len].to_owned()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_reports(outcome: &Outcome, key: &str) {
    let declared = declared(key);
    for (name, unit) in &declared {
        let metric = outcome
            .metric(name)
            .unwrap_or_else(|| panic!("{key} metric {name} not reported"));
        assert_eq!(metric.unit, unit, "{name} unit");
        assert!(metric.value.is_finite(), "{name} = {}", metric.value);
    }
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "only declared metrics"
    );
    let json = outcome.json();
    for (name, unit) in &declared {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {json}"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    for kind in Kind::ALL {
        let outcome = timed::run(kind, SEED, 0.0, Sizes::TINY).expect("timed run");
        assert_eq!(outcome.failed, 0, "{}: error_rate must be 0", kind.name());
        assert_reports(&outcome, "end_to_end");

        let outcome = traced::run(kind, SEED, 0.0, Sizes::TINY, PARALLELISM).expect("traced run");
        assert_eq!(outcome.failed, 0, "{}: traced layers diverged", kind.name());
        assert_reports(&outcome, "per_layer");
        assert!(
            outcome.notes.iter().any(|n| n.starts_with("bottleneck: ")),
            "{}: no bottleneck line",
            kind.name()
        );
    }
}

#[test]
fn the_gate_fails_a_stream_with_one_transaction_removed() {
    let input = Input::build(Kind::StreamShared, SEED, Sizes::TINY).expect("input");
    let reference = Fingerprint::of(&input.serial().expect("reference").board);
    let whole = input.run(PARALLELISM, false).expect("run");
    assert_eq!(reference.mismatch(&Fingerprint::of(&whole.board)), None);

    let Source::Stream(mut txns) = input.source else {
        unreachable!("stream-shared is a stream")
    };
    txns.remove(txns.len() / 2);
    let short = Input {
        source: Source::Stream(txns),
        ..input
    };
    let run = short.run(PARALLELISM, false).expect("run");
    assert!(reference.mismatch(&Fingerprint::of(&run.board)).is_some());
}

#[test]
fn exact_metrics_repeat_at_parallelism_1_and_2() {
    for kind in Kind::ALL {
        let at = |p| traced::run(kind, SEED, 0.0, Sizes::TINY, p).expect("traced run");
        let (one, two) = (at(1), at(2));
        for name in traced::EXACT {
            let (a, b) = (one.metric(name), two.metric(name));
            assert!(a.is_some(), "{name} reported");
            assert_eq!(
                a.map(|m| m.value.to_bits()),
                b.map(|m| m.value.to_bits()),
                "{}: {name}",
                kind.name()
            );
        }
    }
}

#[test]
fn floors_reject_inputs_that_stop_exercising_their_path() {
    let traffic = Traffic {
        hit_ratio: vec![0.5, 0.95],
        evictions_per_ktxn: 10.0,
        interventions_per_ktxn: 0.0,
    };
    let err = traffic.check_floors(Kind::StreamShared).unwrap_err();
    assert!(err.to_string().contains("no interventions"), "{err}");
    assert!(traffic.check_floors(Kind::LiveOltp).is_ok());

    let no_evictions = Traffic {
        evictions_per_ktxn: 0.0,
        ..traffic.clone()
    };
    let err = no_evictions.check_floors(Kind::ReplayDss).unwrap_err();
    assert!(err.to_string().contains("no evictions"), "{err}");

    let all_hits = Traffic {
        hit_ratio: vec![0.95, 0.99],
        interventions_per_ktxn: 5.0,
        ..traffic
    };
    let err = all_hits.check_floors(Kind::StreamShared).unwrap_err();
    assert!(err.to_string().contains("at least 90%"), "{err}");
}
