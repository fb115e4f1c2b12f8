//! `gdse-bench compare`: the regression gate.
//!
//! Reads two sets of result records (JSON lines written by `run --out`),
//! one from the parent commit and one from the change, and gives one
//! verdict per end-to-end metric per workload, using the bounds in
//! `BENCHMARK.json`:
//!
//! * **unresolved** — the parent's or the change's own spread (quartile
//!   distance over median) is wider than the bound, and the change does not
//!   read better than the parent on every run;
//! * **regressed** / **improved** — the change's median is worse / better
//!   than the parent's by more than the bound;
//! * **unchanged** — otherwise.
//!
//! A metric that one set has for a workload and the other lacks (a
//! workload that crashed or printed no result) fails the gate.
//!
//! For each regression it names the per-layer metrics (from the traced
//! records of both sets) whose medians moved the most.
//!
//! The exact results (quality numbers and output digests) are compared per
//! seed: every record of a workload and seed, in either set, must carry the
//! same ones, and both sets must share at least one seed per workload.
//!
//! The exit code is 1 when any metric regressed or is missing, any exact
//! result differs or could not be compared, or any change run failed its
//! checks.

use crate::report::{median, quartiles};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One end-to-end metric of the spec.
struct Gate {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// One result record.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn gates(spec: &Value) -> Result<Vec<Gate>, String> {
    let list = field(spec, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("spec has no end_to_end")?;
    list.iter()
        .map(|m| {
            let name = field(m, "name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = field(m, "better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            let bound = field(m, "bound")
                .and_then(number)
                .ok_or("metric without a bound")?;
            Ok(Gate {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

fn records(text: &str, path: &Path) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
            let v: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
            let workload = field(&v, "workload")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("no workload"))?;
            let metrics = field(&v, "metrics")
                .and_then(Value::as_map)
                .ok_or_else(|| bad("no metrics"))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), field(m, "value").and_then(number)?)))
                .collect();
            let exact = field(&v, "exact")
                .and_then(Value::as_map)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), x.as_str()?.to_string())))
                .collect();
            Ok(Record {
                workload: workload.to_string(),
                seed: field(&v, "seed")
                    .and_then(number)
                    .ok_or_else(|| bad("no seed"))? as u64,
                trace: matches!(field(&v, "trace"), Some(Value::Bool(true))),
                correct: matches!(field(&v, "correct"), Some(Value::Bool(true))),
                failed: field(&v, "failed").and_then(number).unwrap_or(0.0) as u64,
                metrics,
                exact,
            })
        })
        .collect()
}

/// Values of `metric` over the untraced (or traced) records of `workload`.
fn values(recs: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Quartile distance over median.
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::INFINITY;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The verdict on one metric; `worse` is the signed relative change of the
/// medians toward "worse".
fn verdict(gate: &Gate, parent: &[f64], change: &[f64]) -> (&'static str, f64) {
    let (mp, mc) = (median(parent), median(change));
    let worse = if gate.higher_is_better {
        (mp - mc) / mp
    } else {
        (mc - mp) / mp
    };
    let better = |c: f64, p: f64| if gate.higher_is_better { c > p } else { c < p };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if spread(parent).max(spread(change)) > gate.bound {
        if all_better {
            "improved"
        } else {
            "unresolved"
        }
    } else if worse > gate.bound {
        "regressed"
    } else if -worse > gate.bound {
        "improved"
    } else {
        "unchanged"
    };
    (v, worse)
}

/// Per-layer metrics of `workload` whose medians moved most between sets.
fn movers(parent: &[Record], change: &[Record], workload: &str) -> Vec<String> {
    let names: BTreeSet<&String> = parent
        .iter()
        .filter(|r| r.workload == workload && r.trace)
        .flat_map(|r| r.metrics.keys())
        .collect();
    let mut moved: Vec<(f64, String)> = names
        .into_iter()
        .filter_map(|name| {
            let (p, c) = (
                values(parent, workload, true, name),
                values(change, workload, true, name),
            );
            if p.is_empty() || c.is_empty() {
                return None;
            }
            let (mp, mc) = (median(&p), median(&c));
            (mp != 0.0).then(|| ((mc - mp) / mp.abs(), name.clone()))
        })
        .collect();
    moved.sort_by(|a, b| b.0.abs().total_cmp(&a.0.abs()).then(a.1.cmp(&b.1)));
    moved
        .into_iter()
        .take(3)
        .map(|(d, n)| format!("{n} {:+.1}%", d * 100.0))
        .collect()
}

/// Compares the exact results of `workload` seed by seed; prints what
/// differs and returns whether the check failed.
fn exact_differs(parent: &[Record], change: &[Record], workload: &str) -> bool {
    let seeds = |recs: &[Record]| -> BTreeSet<u64> {
        recs.iter()
            .filter(|r| r.workload == workload)
            .map(|r| r.seed)
            .collect()
    };
    let common: Vec<u64> = seeds(parent)
        .intersection(&seeds(change))
        .copied()
        .collect();
    if common.is_empty() {
        println!("{workload:<16} exact results      not compared: no seed in both sets");
        return true;
    }
    let mut differs = false;
    for &seed in &common {
        // Parent records first: the reference is the parent's first one.
        let all: Vec<(&str, &BTreeMap<String, String>)> = parent
            .iter()
            .map(|r| ("parent", r))
            .chain(change.iter().map(|r| ("change", r)))
            .filter(|(_, r)| r.workload == workload && r.seed == seed)
            .map(|(side, r)| (side, &r.exact))
            .collect();
        let reference = all[0].1;
        if reference.is_empty() {
            println!("{workload:<16} exact results      seed {seed}: none recorded");
            differs = true;
            continue;
        }
        for (side, exact) in &all[1..] {
            let names: BTreeSet<&String> = reference.keys().chain(exact.keys()).collect();
            for name in names {
                let (want, got) = (reference.get(name), exact.get(name));
                if want != got {
                    differs = true;
                    println!(
                        "{workload:<16} exact {name}  seed {seed}: parent {}, {side} {}",
                        want.map_or("(none)", String::as_str),
                        got.map_or("(none)", String::as_str),
                    );
                }
            }
        }
    }
    if !differs {
        println!(
            "{workload:<16} exact results      identical on {} seed(s)",
            common.len()
        );
    }
    differs
}

/// Runs the gate; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match compare(args) {
        Ok(regressed) => i32::from(regressed),
        Err(e) => {
            eprintln!("gdse-bench compare: {e}");
            2
        }
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            _ => files.push(a.clone()),
        }
    }
    let [parent_path, change_path] = files.as_slice() else {
        return Err("usage: gdse-bench compare <parent.jsonl> <change.jsonl> [--spec FILE]".into());
    };
    let spec: Value = serde_json::from_str(&read(Path::new(&spec_path))?)
        .map_err(|e| format!("{spec_path}: {e}"))?;
    let gates = gates(&spec)?;
    let (pp, cp) = (Path::new(parent_path), Path::new(change_path));
    let parent = records(&read(pp)?, pp)?;
    let change = records(&read(cp)?, cp)?;

    let workloads: BTreeSet<&str> = parent
        .iter()
        .chain(&change)
        .map(|r| r.workload.as_str())
        .collect();
    let mut failed = false;
    for w in workloads {
        let bad = change
            .iter()
            .filter(|r| r.workload == w && (!r.correct || r.failed > 0))
            .count();
        if bad > 0 {
            println!("{w}: {bad} change run(s) failed their checks or lost operations");
            failed = true;
        }
        for g in &gates {
            let (p, c) = (
                values(&parent, w, false, &g.name),
                values(&change, w, false, &g.name),
            );
            if p.is_empty() || c.is_empty() {
                let side = if p.is_empty() { "parent" } else { "change" };
                println!("{w:<16} {:<17} missing from the {side} set", g.name);
                failed = true;
                continue;
            }
            let (v, worse) = verdict(g, &p, &c);
            println!(
                "{w:<16} {:<17} parent {:>12.4} (spread {:>5.1}%)  change {:>12.4} (spread {:>5.1}%)  worse by {:>+6.1}% (bound {:.0}%)  {v}",
                g.name,
                median(&p),
                spread(&p) * 100.0,
                median(&c),
                spread(&c) * 100.0,
                worse * 100.0,
                g.bound * 100.0,
            );
            if v == "regressed" {
                failed = true;
                let m = movers(&parent, &change, w);
                if m.is_empty() {
                    println!("    moved most: no traced runs in both sets");
                } else {
                    println!("    moved most: {}", m.join(", "));
                }
            }
        }
        failed |= exact_differs(&parent, &change, w);
    }
    Ok(failed)
}

/// The largest bound the gate allows.
const MAX_BOUND: f64 = 0.25;

/// The bound rule: at least 5%, at least 1.5 times the worst half-range and
/// 3 times the worst quartile spread seen across workloads, rounded up to a
/// whole percent, at most [`MAX_BOUND`]. Set-up time always gets the
/// largest bound, so that work moved into set-up shows without tripping on
/// its noise.
fn derive_bound(name: &str, half_range: f64, spread: f64) -> f64 {
    if name == "setup_s" {
        return MAX_BOUND;
    }
    let b = (1.5 * half_range).max(3.0 * spread).max(0.05);
    ((b * 100.0).ceil() / 100.0).min(MAX_BOUND)
}

/// `gdse-bench calibrate <runs.jsonl>`: prints, as JSON, each end-to-end
/// metric's spread per workload over the untraced runs and the bound the
/// rule derives from them; returns the exit code.
pub fn calibrate(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("usage: gdse-bench calibrate <runs.jsonl>");
        return 2;
    };
    let path = Path::new(path);
    let recs = match read(path).and_then(|text| records(&text, path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gdse-bench calibrate: {e}");
            return 2;
        }
    };
    let workloads: BTreeSet<&str> = recs
        .iter()
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    let names: BTreeSet<&String> = recs
        .iter()
        .filter(|r| !r.trace)
        .flat_map(|r| r.metrics.keys())
        .collect();
    let mut entries = Vec::new();
    for name in names {
        let (mut worst_half, mut worst_spread) = (0.0f64, 0.0f64);
        let mut per = Vec::new();
        for &w in &workloads {
            let v = values(&recs, w, false, name);
            if v.is_empty() {
                continue;
            }
            let m = median(&v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            let half = (hi - lo) / 2.0 / m.abs();
            let s = spread(&v);
            (worst_half, worst_spread) = (worst_half.max(half), worst_spread.max(s));
            per.push((
                w.to_string(),
                Value::Map(vec![
                    ("runs".into(), Value::Int(v.len() as i128)),
                    ("median".into(), Value::Float(m)),
                    ("spread".into(), Value::Float(s)),
                    ("half_range".into(), Value::Float(half)),
                ]),
            ));
        }
        entries.push((
            name.clone(),
            Value::Map(vec![
                (
                    "bound".into(),
                    Value::Float(derive_bound(name, worst_half, worst_spread)),
                ),
                ("workloads".into(), Value::Map(per)),
            ]),
        ));
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&Value::Map(entries)).expect("values serialize")
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_rule() {
        assert_eq!(derive_bound("latency_ms", 0.01, 0.01), 0.05);
        assert_eq!(derive_bound("latency_ms", 0.06, 0.02), 0.09);
        assert_eq!(derive_bound("latency_ms", 0.01, 0.04), 0.12);
        assert_eq!(derive_bound("latency_ms", 0.3, 0.2), MAX_BOUND);
        assert_eq!(derive_bound("setup_s", 0.0, 0.0), MAX_BOUND);
    }

    fn gate(bound: f64) -> Gate {
        Gate {
            name: "latency_ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let p = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&gate(0.1), &p, &[100.0, 100.2, 99.8, 100.1, 99.9]).0,
            "unchanged"
        );
        assert_eq!(
            verdict(&gate(0.1), &p, &[120.0, 121.0, 119.0, 120.5, 119.5]).0,
            "regressed"
        );
        assert_eq!(
            verdict(&gate(0.1), &p, &[80.0, 81.0, 79.0, 80.5, 79.5]).0,
            "improved"
        );
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&gate(0.1), &noisy, &[120.0, 121.0, 119.0, 120.5, 119.5]).0,
            "unresolved"
        );
    }
}
