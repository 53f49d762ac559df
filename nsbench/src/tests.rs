//! Unit tests of the benchmark itself. The smoke-scale runs here check
//! the shape of the output, never its numbers.

use crate::adapter::Scale;
use crate::gen::{unique_query, Rng, Zipf, ZipfStream};
use crate::report::{Json, RunResult};
use crate::spec::Spec;
use crate::stats::{percentile, quartiles};
use crate::workloads::{self, Opts, WORKLOADS};
use std::collections::HashSet;
use std::path::PathBuf;

fn spec() -> Spec {
    Spec::load(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

fn smoke(workload: &str, test: &str) -> Opts {
    Opts {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.05,
        scale: Scale::SMOKE,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out/tests")
            .join(test),
    }
}

fn names_and_units(r: &RunResult) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

#[test]
fn the_spec_names_the_workloads_this_binary_runs() {
    assert_eq!(spec().workloads, WORKLOADS);
}

#[test]
fn untraced_smoke_runs_emit_exactly_the_end_to_end_metrics() {
    let spec = spec();
    let want: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    for workload in WORKLOADS {
        let r = workloads::run(&smoke(workload, "untraced")).expect(workload);
        assert_eq!(names_and_units(&r), want, "{workload}");
        assert_eq!(r.failed, 0, "{workload}");
        assert!(r.attempted >= 1, "{workload}");
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload} {m:?}");
        }
        let line = r.to_json_line();
        let back = RunResult::from_json_line(&line).expect("the result line parses");
        assert_eq!(back.metrics, r.metrics, "{workload}");
        let keys: Vec<String> = match Json::parse(&line).unwrap() {
            Json::Object(kv) => kv.into_iter().map(|(k, _)| k).collect(),
            other => panic!("result line is not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn traced_smoke_runs_emit_exactly_the_per_layer_metrics() {
    let spec = spec();
    let want: Vec<(String, String)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    for workload in WORKLOADS {
        let opts = smoke(workload, "traced");
        let r = crate::probes::run_traced(&opts).expect(workload);
        assert_eq!(names_and_units(&r), want, "{workload}");
        assert_eq!(r.failed, 0, "{workload}");
        for m in &r.metrics {
            assert!(m.value.is_finite(), "{workload} {m:?}");
        }
        let trace = opts.out_dir.join(workload).join("trace.jsonl");
        let text = std::fs::read_to_string(&trace).expect("trace.jsonl is written");
        let first = Json::parse(text.lines().next().expect("at least one span")).unwrap();
        for key in ["id", "parent", "batch", "name", "start_ns", "end_ns"] {
            assert!(first.get(key).is_some(), "{workload}: span without {key}");
        }
    }
}

#[test]
fn stepped_wire_spans_cover_the_stepped_wall() {
    {
        let workload = "wire_saturate";
        let r = crate::probes::run_traced(&smoke(workload, "coverage")).expect(workload);
        let coverage = r.get("stage.coverage").unwrap();
        assert!(
            (0.95..=1.0001).contains(&coverage),
            "{workload}: spans cover {coverage} of the wall"
        );
        assert!(r.get("trace_overhead_ratio").unwrap() > 0.0);
    }
}

#[test]
fn names_and_units_stay_within_the_contract() {
    let spec = spec();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = HashSet::new();
    for w in &spec.workloads {
        assert!(name_ok(w) && seen.insert(w.clone()), "workload {w}");
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(
            name_ok(&m.name) && seen.insert(m.name.clone()),
            "{}",
            m.name
        );
        assert!(unit_ok(&m.unit), "{} unit {}", m.name, m.unit);
    }
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
    }
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(spec.per_layer.len() <= 128 && spec.end_to_end.len() <= 16);
}

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(unique_query(5, 1234), unique_query(5, 1234));
    assert_ne!(unique_query(5, 1234), unique_query(6, 1234));
    let (a, b) = (ZipfStream::new(9, 500, 1.1), ZipfStream::new(9, 500, 1.1));
    assert_eq!(a.batch(3, 64), b.batch(3, 64));
    assert_ne!(a.batch(3, 64), a.batch(4, 64));
    assert_ne!(a.batch(3, 64), ZipfStream::new(10, 500, 1.1).batch(3, 64));
}

#[test]
fn the_unique_stream_never_repeats_and_stays_in_the_domain() {
    let mut seen = HashSet::new();
    for i in 0..200_000u64 {
        let q = unique_query(1, i);
        assert_eq!(q.len(), 4);
        for k in 0..2 {
            assert!((0.0..1.0).contains(&q[k]), "corner {q:?}");
            assert!(q[k + 2] >= 0.0 && q[k] + q[k + 2] <= 1.0, "width {q:?}");
        }
        let bits: Vec<u64> = q.iter().map(|v| v.to_bits()).collect();
        assert!(seen.insert(bits), "query {i} repeats an earlier one");
    }
    // The index rides in the low mantissa bits of the first corner, so
    // uniqueness does not rest on the hash.
    assert_eq!(unique_query(1, 77)[0].to_bits() & 0xFFFF_FFFF, 77);
}

#[test]
fn zipf_ranks_are_skewed_and_in_range() {
    let zipf = Zipf::new(1000, 1.1);
    let mut rng = Rng::new(4);
    let mut head = 0;
    for _ in 0..20_000 {
        let rank = zipf.sample(&mut rng);
        assert!(rank < 1000);
        head += usize::from(rank < 10);
    }
    // Ranks 1..=10 of Zipf(1.1) over 1000 carry about 45% of the mass.
    assert!((7_000..11_000).contains(&head), "head mass {head}");
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let sample: Vec<f64> = (0..1000).map(f64::from).collect();
    assert_eq!(percentile(&sample, 0.99), Some(989.0));
    assert_eq!(percentile(&sample[..999], 0.99), None);
    assert_eq!(percentile(&sample[..21], 0.50), Some(10.0));
    assert_eq!(percentile(&sample[..20], 0.50), None);
    assert_eq!(percentile(&[], 0.50), None);
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
}

#[test]
fn json_reader_handles_the_shapes_it_is_given() {
    let v = Json::parse(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
    assert_eq!(
        v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
        Some(-2500.0)
    );
    assert_eq!(
        v.get("a").unwrap().as_array().unwrap()[2].as_str(),
        Some("x\"y")
    );
    assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1 2]").is_err());
    assert!(Json::parse("{} x").is_err());
}
