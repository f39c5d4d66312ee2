//! `exact_scenarios`: in-process library calls over the paper's
//! domains, plus QRPP/ARPP on the Thm 7.2 / Thm 8.1 reductions of seeded
//! 3-CNF formulas, plus one ARPP call under a deadline.
//!
//! Each domain instance has a 16-item pool, so the benchmark
//! enumerates every subset itself, with its own cost, rating
//! and compatibility checks, and compares FRP, MBP, CPP and RPP against
//! that. QRPP/ARPP answers are compared with a SAT solver's verdict on
//! the formula the instance was reduced from.

use std::time::{Duration, Instant};

use pkgrec_adjust::{arpp, candidate_ops, AdjustOp, Adjustment, ArppInstance};
use pkgrec_core::{
    problems::{cpp, frp, mbp, rpp},
    Budget, Ext, Package, PackageFn, PreparedInstance, RecInstance, SearchStats, SolveOptions,
};
use pkgrec_data::{tuple, Database, Relation, Tuple};
use pkgrec_logic::gen::{force_unsat, random_3cnf};
use pkgrec_logic::{is_satisfiable, CnfFormula};
use pkgrec_relax::{qrpp, QrppInstance};
use pkgrec_workloads::{courses, random, teams, travel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, set_layer, Outcome, Report, Tally};

/// Worker threads of the measured calls. At 2 workers the same calls
/// varied several-fold between runs on a 2-core host (README), so the
/// parallel engine's cost is measured in the traced run instead, at
/// `PARALLEL_JOBS`.
const JOBS: usize = 1;
const PARALLEL_JOBS: usize = 2;
const SETUPS: usize = 15;
/// Instances per domain: travel, courses, teams, groups. Each is solved
/// for top-3 and top-2 in turn. Per call, courses (FO `Qc`) costs about
/// ten times the others and travel about half; with three times as
/// many groups instances, the median call falls inside the groups
/// calls and the p90 inside the courses calls rather than on the edge
/// between two domains, where it jumped from run to run.
const INSTANCES: [usize; 4] = [8, 8, 8, 24];
/// The formula shapes QRPP and ARPP decide each round:
/// `(variables, clauses)`.
const QRPP_CNF: [(usize, usize); 3] = [(4, 10); 3];
const ARPP_CNF: [(usize, usize); 3] = [(2, 4); 3];
/// The deadline-bound ARPP call: a fixed formula, the same on every
/// seed, and its deadline.
const DEADLINE_CNF: (u64, usize, usize) = (0xA5_2012, 3, 6);
const DEADLINE: Duration = Duration::from_millis(20);

fn opts() -> SolveOptions {
    SolveOptions::default().with_jobs(JOBS)
}

type Compatible = Box<dyn Fn(&[&Tuple]) -> bool + Send + Sync>;

/// A domain instance together with the benchmark's own model of it.
struct Scenario {
    name: &'static str,
    inst: RecInstance,
    /// `Q(D)`, computed by the benchmark from its own rows.
    pool: Vec<Tuple>,
    cost: fn(&[&Tuple]) -> f64,
    val: fn(&[&Tuple]) -> f64,
    /// The compatibility check (`Qc(N, D) = ∅`), with the scenario's
    /// side data.
    compatible: Compatible,
    budget: f64,
    k: usize,
}

fn int(t: &Tuple, col: usize) -> i64 {
    t[col].as_int().expect("int column")
}

/// `values` in a seeded order. The search space an instance spans is set
/// by how many packages fit its budget, so the costs that decide it
/// (visit times, credits) are a fixed multiset in a random order: seeds
/// change the data, not how much there is to search.
fn shuffled(rng: &mut StdRng, values: &[i64]) -> Vec<i64> {
    let mut v = values.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

fn travel_scenario(rng: &mut StdRng, k: usize) -> Scenario {
    const CITIES: usize = 4;
    let (from, to, day) = (0usize, 1usize, rng.gen_range(1..=3i64));
    let mut flights = Relation::empty(travel::flight_schema());
    let mut fno = 0i64;
    let mut add = |flights: &mut Relation, a: usize, b: usize, d: i64, p: i64| {
        flights
            .insert(tuple![
                fno,
                format!("c{a}").as_str(),
                format!("c{b}").as_str(),
                d,
                p
            ])
            .expect("schema-conformant");
        fno += 1;
    };
    for _ in 0..2 {
        let price = rng.gen_range(80..800);
        add(&mut flights, from, to, day, price);
    }
    for _ in 0..20 {
        let a = rng.gen_range(0..CITIES);
        let b = (a + rng.gen_range(1..CITIES)) % CITIES;
        let d = rng.gen_range(1..=3);
        if (a, b, d) != (from, to, day) {
            add(&mut flights, a, b, d, rng.gen_range(80..800));
        }
    }
    let mut pois = Relation::empty(travel::poi_schema());
    for c in 0..CITIES {
        let times = shuffled(rng, &[45, 60, 90, 120, 150, 180, 210, 240]);
        for (p, time) in times.into_iter().enumerate() {
            pois.insert(tuple![
                format!("p{c}_{p}").as_str(),
                format!("c{c}").as_str(),
                travel::POI_TYPES[rng.gen_range(0..travel::POI_TYPES.len())],
                rng.gen_range(0..60),
                time
            ])
            .expect("schema-conformant");
        }
    }
    // Q(D) by nested loops over the rows just generated.
    let mut pool = Vec::new();
    for f in flights.iter() {
        if f[1].as_str() != Some("c0") || f[2].as_str() != Some("c1") || int(f, 3) != day {
            continue;
        }
        for p in pois.iter() {
            if p[1].as_str() == Some("c1") {
                pool.push(Tuple::new(vec![
                    f[0].clone(),
                    f[4].clone(),
                    p[0].clone(),
                    p[2].clone(),
                    p[3].clone(),
                    p[4].clone(),
                ]));
            }
        }
    }
    let mut db = Database::new();
    db.add_relation(flights).expect("fresh db");
    db.add_relation(pois).expect("fresh db");
    let budget = 450.0;
    Scenario {
        name: "travel",
        inst: travel::travel_instance(db, "c0", "c1", day, budget, k),
        pool,
        cost: |n| n.iter().map(|t| int(t, 5) as f64).sum(),
        val: |n| {
            let airfare = n.first().map_or(0, |t| int(t, 1)) as f64;
            let tickets: f64 = n.iter().map(|t| int(t, 4) as f64).sum();
            10.0 * n.len() as f64 - (airfare + tickets) / 100.0
        },
        compatible: Box::new(|n| {
            let one_flight = n.windows(2).all(|w| w[0][0] == w[1][0]);
            let museums = n.iter().filter(|t| t[3].as_str() == Some("museum")).count();
            one_flight && museums <= 2
        }),
        budget,
        k,
    }
}

fn course_scenario(rng: &mut StdRng, k: usize) -> Scenario {
    const COURSES: i64 = 14;
    let mut course = Relation::empty(courses::course_schema());
    let mut prereq = Relation::empty(courses::prereq_schema());
    let mut needs: Vec<(i64, i64)> = Vec::new();
    let credits = shuffled(rng, &[1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3]);
    for c in 0..COURSES {
        course
            .insert(tuple![
                c,
                courses::AREAS[rng.gen_range(0..courses::AREAS.len())],
                credits[c as usize],
                rng.gen_range(1..=5i64)
            ])
            .expect("schema-conformant");
        for e in 0..c {
            if rng.gen_bool(0.2) {
                prereq.insert(tuple![c, e]).expect("schema-conformant");
                needs.push((c, e));
            }
        }
    }
    let pool: Vec<Tuple> = course.iter().cloned().collect();
    let mut db = Database::new();
    db.add_relation(course).expect("fresh db");
    db.add_relation(prereq).expect("fresh db");
    let budget = 8.0;
    Scenario {
        name: "courses",
        inst: courses::course_instance(db, budget, k),
        pool,
        cost: |n| n.iter().map(|t| int(t, 2) as f64).sum(),
        val: |n| n.iter().map(|t| int(t, 3) as f64).sum(),
        compatible: Box::new(move |n| {
            let has = |cid: i64| n.iter().any(|t| int(t, 0) == cid);
            n.iter().all(|t| {
                let c = int(t, 0);
                needs.iter().filter(|&&(x, _)| x == c).all(|&(_, e)| has(e))
            })
        }),
        budget,
        k,
    }
}

fn team_scenario(rng: &mut StdRng, k: usize) -> Scenario {
    const EXPERTS: i64 = 8;
    const REQUIRED: [&str; 3] = ["rust", "ml", "ops"];
    let mut expert = Relation::empty(teams::expert_schema());
    for e in 0..EXPERTS {
        let fee = rng.gen_range(50..200i64);
        for _ in 0..2 {
            expert
                .insert(tuple![
                    e,
                    teams::SKILLS[rng.gen_range(0..teams::SKILLS.len())],
                    rng.gen_range(1..=5i64),
                    fee
                ])
                .expect("schema-conformant");
        }
    }
    let pool: Vec<Tuple> = expert.iter().cloned().collect();
    let mut db = Database::new();
    db.add_relation(expert).expect("fresh db");
    let budget = 3.0;
    Scenario {
        name: "teams",
        inst: teams::team_instance(db, &REQUIRED, budget, k),
        pool,
        cost: |n| {
            let mut ids: Vec<i64> = n.iter().map(|t| int(t, 0)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as f64
        },
        val: |n| {
            let levels: f64 = n.iter().map(|t| int(t, 2) as f64).sum();
            let mut fees: Vec<(i64, i64)> = n.iter().map(|t| (int(t, 0), int(t, 3))).collect();
            fees.sort_unstable();
            fees.dedup_by_key(|f| f.0);
            levels - fees.iter().map(|f| f.1 as f64).sum::<f64>() / 100.0
        },
        compatible: Box::new(|n| {
            REQUIRED
                .iter()
                .all(|s| n.iter().any(|t| t[1].as_str() == Some(s)))
        }),
        budget,
        k,
    }
}

fn groups_scenario(rng: &mut StdRng, k: usize) -> Scenario {
    // 16 rows the SP query selects (price < 80) and 4 it filters out,
    // so every instance has a 16-item pool.
    let mut item = Relation::empty(random::item_schema());
    for i in 0..20i64 {
        let price = if i < 16 {
            rng.gen_range(1..80i64)
        } else {
            rng.gen_range(80..100i64)
        };
        item.insert(tuple![
            i,
            rng.gen_range(0..6i64),
            price,
            rng.gen_range(1..100i64)
        ])
        .expect("schema-conformant");
    }
    let pool: Vec<Tuple> = item.iter().filter(|t| int(t, 2) < 80).cloned().collect();
    let mut db = Database::new();
    db.add_relation(item).expect("fresh db");
    let budget = 4.0;
    Scenario {
        name: "groups",
        inst: RecInstance::new(db, random::fixed_sp_query())
            .with_qc(random::distinct_groups_qc())
            .with_cost(PackageFn::count())
            .with_budget(budget)
            .with_val(PackageFn::sum_col(3, true))
            .with_k(k),
        pool,
        cost: |n| n.len() as f64,
        val: |n| n.iter().map(|t| int(t, 3) as f64).sum(),
        compatible: Box::new(|n| {
            let mut g: Vec<i64> = n.iter().map(|t| int(t, 1)).collect();
            g.sort_unstable();
            g.windows(2).all(|w| w[0] != w[1])
        }),
        budget,
        k,
    }
}

/// Ratings of every valid package, best first, by enumerating every
/// subset of the pool (empty package included: its cost is ∞ in every
/// scenario, so it is never valid).
fn oracle(s: &Scenario) -> Vec<f64> {
    let mut vals = valid_ratings(s, usize::MAX);
    vals.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    vals
}

/// Ratings of valid packages, in subset order, stopping at `limit`.
fn valid_ratings(s: &Scenario, limit: usize) -> Vec<f64> {
    let n = s.pool.len();
    assert!(
        n <= 16,
        "{}: pool of {n} items is too large to enumerate",
        s.name
    );
    let mut vals = Vec::new();
    let mut members: Vec<&Tuple> = Vec::with_capacity(n);
    for mask in 1u32..(1u32 << n) {
        members.clear();
        members.extend((0..n).filter(|i| mask & (1 << i) != 0).map(|i| &s.pool[i]));
        if (s.cost)(&members) <= s.budget && (s.compatible)(&members) {
            vals.push((s.val)(&members));
            if vals.len() >= limit {
                break;
            }
        }
    }
    vals
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Check one package of a selection with the benchmark's own rules;
/// returns its rating.
fn own_rating(s: &Scenario, pkg: &Package) -> Result<f64, String> {
    let members: Vec<&Tuple> = pkg.iter().collect();
    if members.iter().any(|t| !s.pool.contains(t)) {
        return Err(format!(
            "{}: package {pkg} has an item outside Q(D)",
            s.name
        ));
    }
    if members.is_empty() || (s.cost)(&members) > s.budget {
        return Err(format!("{}: package {pkg} is over budget", s.name));
    }
    if !(s.compatible)(&members) {
        return Err(format!("{}: package {pkg} violates Qc", s.name));
    }
    Ok((s.val)(&members))
}

/// A reduction instance and the SAT verdict on its formula.
struct Reduced<T> {
    inst: T,
    satisfiable: bool,
}

/// Per shape, a random formula and a second one made unsatisfiable, so
/// each round decides yes- and no-instances alike; a no-instance makes
/// the solver exhaust its whole candidate space.
fn formulas(rng: &mut StdRng, shapes: &[(usize, usize)]) -> Vec<CnfFormula> {
    shapes
        .iter()
        .flat_map(|&(v, c)| [random_3cnf(rng, v, c), force_unsat(&random_3cnf(rng, v, c))])
        .collect()
}

struct Inputs {
    scenarios: Vec<Scenario>,
    qrpp: Vec<Reduced<QrppInstance>>,
    arpp: Vec<Reduced<ArppInstance>>,
    deadline: Reduced<ArppInstance>,
    /// Time `set_up` spent in the benchmark's own oracle, which is not
    /// set-up work of the program.
    check_secs: f64,
}

fn set_up(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7AC_7001);
    let makers: [fn(&mut StdRng, usize) -> Scenario; 4] = [
        travel_scenario,
        course_scenario,
        team_scenario,
        groups_scenario,
    ];
    let mut scenarios = Vec::new();
    let mut check_secs = 0.0;
    for (make, count) in makers.into_iter().zip(INSTANCES) {
        for i in 0..count {
            let k = 3 - i % 2;
            // Draw again until the instance has a top-k selection, so
            // every round runs the same operations.
            let s = std::iter::repeat_with(|| make(&mut rng, k))
                .find(|s| {
                    let (vals, t) = common::timed(|| valid_ratings(s, s.k));
                    check_secs += t;
                    vals.len() >= s.k
                })
                .expect("an instance with k valid packages");
            scenarios.push(s);
        }
    }
    let qrpp = formulas(&mut rng, &QRPP_CNF)
        .into_iter()
        .map(|phi| Reduced {
            satisfiable: is_satisfiable(&phi),
            inst: pkgrec_reductions::thm7_2::reduce_3sat(&phi),
        })
        .collect();
    let arpp = formulas(&mut rng, &ARPP_CNF)
        .into_iter()
        .map(|phi| Reduced {
            satisfiable: is_satisfiable(&phi),
            inst: pkgrec_reductions::thm8_1::reduce_3sat(&phi),
        })
        .collect();
    let (dseed, dv, dc) = DEADLINE_CNF;
    let phi = random_3cnf(&mut StdRng::seed_from_u64(dseed), dv, dc);
    let deadline = Reduced {
        satisfiable: is_satisfiable(&phi),
        inst: pkgrec_reductions::thm8_1::reduce_3sat(&phi),
    };
    Inputs {
        scenarios,
        qrpp,
        arpp,
        deadline,
        check_secs,
    }
}

/// Which operation an attempt was, for per-kind timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Frp,
    Mbp,
    Cpp,
    Rpp,
    Qrpp,
    Arpp,
    ArppDeadline,
}

const OPS: [Op; 7] = [
    Op::Frp,
    Op::Mbp,
    Op::Cpp,
    Op::Rpp,
    Op::Qrpp,
    Op::Arpp,
    Op::ArppDeadline,
];

/// What a round measured beyond the tally.
#[derive(Default)]
struct RoundLog {
    times: Vec<(Op, f64)>,
    nodes: u64,
    valid: u64,
    arpp_adjustments: u64,
    /// Answers, compared between rounds.
    answers: Vec<String>,
}

impl RoundLog {
    fn search(&mut self, stats: &SearchStats) {
        self.nodes += stats.packages_enumerated;
        self.valid += stats.valid_packages;
    }
}

fn counter_now(name: &str) -> u64 {
    pkgrec_trace::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// One round: every operation once, in a fixed order.
fn round(
    inputs: &Inputs,
    oracles: &[Vec<f64>],
    tally: &mut Tally,
    log: &mut RoundLog,
) -> Result<(), String> {
    let time = |op: Op, tally: &mut Tally, log: &mut RoundLog, secs: f64, failed: bool| {
        tally.record(secs, failed);
        log.times.push((op, secs));
    };
    for (s, vals) in inputs.scenarios.iter().zip(oracles) {
        let _span = common::span("scenario");
        let (out, t) = {
            let _s = common::span("core.frp");
            common::timed(|| frp::top_k(&s.inst, &opts()))
        };
        time(Op::Frp, tally, log, t, out.is_err());
        let out = out.map_err(|e| format!("{}: FRP failed: {e}", s.name))?;
        log.search(&out.stats);
        if !out.exact {
            return Err(format!("{}: FRP answer is not exact", s.name));
        }
        let sel = match out.value {
            Some(sel) if vals.len() >= s.k => sel,
            None if vals.len() < s.k => return Err(format!("{}: fewer than k packages", s.name)),
            other => {
                return Err(format!(
                    "{}: FRP returned {other:?}, oracle has {} valid",
                    s.name,
                    vals.len()
                ))
            }
        };
        for (rank, pkg) in sel.iter().enumerate() {
            let v = own_rating(s, pkg)?;
            if !close(v, vals[rank]) {
                return Err(format!(
                    "{}: FRP rank {rank} rates {v}, expected {}",
                    s.name, vals[rank]
                ));
            }
        }
        let kth = vals[s.k - 1];

        let (out, t) = {
            let _s = common::span("core.mbp");
            common::timed(|| mbp::maximum_bound(&s.inst, &opts()))
        };
        time(Op::Mbp, tally, log, t, out.is_err());
        let out = out.map_err(|e| format!("{}: MBP failed: {e}", s.name))?;
        log.search(&out.stats);
        match out.value {
            Some(Ext::Finite(b)) if out.exact && close(b, kth) => {}
            other => {
                return Err(format!(
                    "{}: MBP returned {other:?}, expected {kth}",
                    s.name
                ))
            }
        }

        let (out, t) = {
            let _s = common::span("core.cpp");
            common::timed(|| cpp::count_valid(&s.inst, Ext::NegInf, &opts()))
        };
        time(Op::Cpp, tally, log, t, out.is_err());
        let out = out.map_err(|e| format!("{}: CPP failed: {e}", s.name))?;
        log.search(&out.stats);
        if !out.exact || out.value != vals.len() as u128 {
            return Err(format!(
                "{}: CPP counted {}, expected {}",
                s.name,
                out.value,
                vals.len()
            ));
        }

        let (out, t) = {
            let _s = common::span("core.rpp");
            common::timed(|| rpp::is_top_k(&s.inst, &sel, &opts()))
        };
        time(Op::Rpp, tally, log, t, out.is_err());
        if !out.map_err(|e| format!("{}: RPP failed: {e}", s.name))? {
            return Err(format!("{}: RPP rejects the FRP selection", s.name));
        }
        log.answers.push(format!("{}:{sel:?}", s.name));
    }

    for r in &inputs.qrpp {
        let (out, t) = {
            let _s = common::span("relax.qrpp");
            common::timed(|| qrpp(&r.inst, &opts()))
        };
        time(Op::Qrpp, tally, log, t, out.is_err());
        let found = out.map_err(|e| format!("QRPP failed: {e}"))?.is_some();
        if found != r.satisfiable {
            return Err(format!(
                "QRPP says {found}, the formula's satisfiability is {}",
                r.satisfiable
            ));
        }
        log.answers.push(format!("qrpp:{found}"));
    }

    for r in &inputs.arpp {
        let before = counter_now("arpp.adjustments");
        let (out, t) = {
            let _s = common::span("adjust.arpp");
            common::timed(|| arpp(&r.inst, &opts()))
        };
        log.arpp_adjustments += counter_now("arpp.adjustments") - before;
        time(Op::Arpp, tally, log, t, out.is_err());
        let found = out.map_err(|e| format!("ARPP failed: {e}"))?.is_some();
        if found != r.satisfiable {
            return Err(format!(
                "ARPP says {found}, the formula's satisfiability is {}",
                r.satisfiable
            ));
        }
        log.answers.push(format!("arpp:{found}"));
    }

    // The deadline-bound call fails when it returns later than twice
    // its deadline; an answer it does return must still be right.
    let d = &inputs.deadline;
    let budget_opts = SolveOptions::with_budget(Budget::with_timeout(DEADLINE)).with_jobs(JOBS);
    let (out, t) = {
        let _s = common::span("adjust.arpp_deadline");
        common::timed(|| arpp(&d.inst, &budget_opts))
    };
    let late = t > 2.0 * DEADLINE.as_secs_f64();
    time(Op::ArppDeadline, tally, log, t, late);
    if let Ok(answer) = out {
        if answer.is_some() != d.satisfiable {
            return Err(format!(
                "deadline ARPP says {}, the formula's satisfiability is {}",
                answer.is_some(),
                d.satisfiable
            ));
        }
    }
    Ok(())
}

pub fn run(args: &common::Args) -> Outcome {
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        let i = set_up(args.seed);
        // Compile every scenario once, as a user's first solve would.
        for s in &i.scenarios {
            PreparedInstance::new(s.inst.clone()).expect("scenario compiles");
        }
        setup_times.push(common::secs(t) - i.check_secs);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let oracles: Vec<Vec<f64>> = inputs.scenarios.iter().map(oracle).collect();

    let _tracing = args
        .trace
        .then(|| (pkgrec_trace::scoped(), pkgrec_trace::timeline::scoped()));
    pkgrec_trace::reset();
    let mut tally = Tally::default();
    let mut logs: Vec<RoundLog> = Vec::new();
    let mut error: Option<String> = None;
    let (rounds, elapsed) = common::run_rounds(args.window(), |_| {
        let mut log = RoundLog::default();
        if let Err(e) = tally.round(|t| round(&inputs, &oracles, t, &mut log)) {
            error.get_or_insert(e);
        }
        if let Some(first) = logs.first() {
            if first.answers != log.answers && error.is_none() {
                error = Some("answers changed between rounds".into());
            }
        }
        logs.push(log);
    });
    let trace = pkgrec_trace::take();

    let mut report;
    if args.trace {
        report = common::per_layer_report();
        let per_round =
            |name: &str| trace.counters.get(name).copied().unwrap_or(0) as f64 / rounds as f64;
        let op_ms = |op: Op| {
            let v: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.times.iter().filter(|(o, _)| *o == op).map(|(_, t)| *t))
                .collect();
            common::median(&v) * 1e3
        };
        set_layer(&mut report, "core.frp_ms", op_ms(Op::Frp));
        set_layer(&mut report, "core.mbp_ms", op_ms(Op::Mbp));
        set_layer(&mut report, "core.cpp_ms", op_ms(Op::Cpp));
        set_layer(&mut report, "core.rpp_ms", op_ms(Op::Rpp));
        set_layer(&mut report, "relax.qrpp_ms", op_ms(Op::Qrpp));
        set_layer(&mut report, "adjust.arpp_ms", op_ms(Op::Arpp));
        set_layer(
            &mut report,
            "adjust.deadline_overrun_x",
            op_ms(Op::ArppDeadline) / (DEADLINE.as_secs_f64() * 1e3),
        );
        let sum = |f: fn(&RoundLog) -> u64| logs.iter().map(f).sum::<u64>() as f64;
        set_layer(&mut report, "core.nodes", sum(|l| l.nodes) / rounds as f64);
        let nodes = sum(|l| l.nodes);
        set_layer(
            &mut report,
            "core.valid_per_node",
            if nodes > 0.0 {
                sum(|l| l.valid) / nodes
            } else {
                0.0
            },
        );
        set_layer(
            &mut report,
            "core.pruned.cost",
            per_round("enumerate.pruned.cost"),
        );
        set_layer(
            &mut report,
            "core.pruned.compat",
            per_round("enumerate.pruned.compat"),
        );
        set_layer(
            &mut report,
            "core.pruned.floor",
            per_round("enumerate.pruned.floor"),
        );
        set_layer(
            &mut report,
            "query.bitset_probes",
            per_round("query.bitset_probes"),
        );
        set_layer(
            &mut report,
            "relax.candidates",
            per_round("qrpp.relaxations"),
        );
        let arpp_s: f64 = logs
            .iter()
            .flat_map(|l| {
                l.times
                    .iter()
                    .filter(|(o, _)| *o == Op::Arpp)
                    .map(|(_, t)| *t)
            })
            .sum();
        set_layer(
            &mut report,
            "adjust.candidates_per_s",
            if arpp_s > 0.0 {
                sum(|l| l.arpp_adjustments) / arpp_s
            } else {
                0.0
            },
        );
        set_layer(&mut report, "traced.ops_per_s", tally.ops_per_s());
        probe_layers(&mut report, &inputs);
    } else {
        report = Report::default();
        report.set("setup_s", common::median(&setup_times), "s");
        report.set("peak_rss_mb", common::peak_rss_mb(), "MB");
        tally.report_into(&mut report);
    }
    if let Some(e) = &error {
        eprintln!("perfbench: exact check failed: {e}");
    }
    let per_op: Vec<String> = OPS
        .iter()
        .map(|&op| {
            let v: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.times.iter().filter(|(o, _)| *o == op).map(|(_, t)| *t))
                .collect();
            format!(
                "{op:?} n={} median {:.3}ms",
                v.len(),
                common::median(&v) * 1e3
            )
        })
        .collect();
    eprintln!(
        "perfbench: {rounds} rounds in {elapsed:.2}s, {} ops, {} failed; {}",
        tally.attempted,
        tally.failed,
        per_op.join("; ")
    );
    Outcome {
        correct: error.is_none(),
        attempted: tally.attempted,
        failed: tally.failed,
        report,
        trace_json: args.trace.then(common::take_spans_json),
    }
}

/// Per-call timings of single layers on the workload's own inputs.
fn probe_layers(report: &mut Report, inputs: &Inputs) {
    let (mut compile, mut items, mut prepare, mut probe_ns) = (vec![], vec![], vec![], vec![]);
    for s in &inputs.scenarios {
        let (_, t) = {
            let _s = common::span("query.compile");
            common::timed(|| s.inst.query.compile(&s.inst.db).expect("compiles"))
        };
        compile.push(t);
        let (_, t) = {
            let _s = common::span("query.items");
            common::timed(|| s.inst.items().expect("items"))
        };
        items.push(t);
        let (_, t) = {
            let _s = common::span("core.prepare");
            common::timed(|| PreparedInstance::new(s.inst.clone()).expect("prepares"))
        };
        prepare.push(t);
        // Qc probes on a fixed sample: every package of up to 2 items.
        let ctx = s.inst.search_context().expect("context");
        let mut sample = Vec::new();
        for (i, a) in s.pool.iter().enumerate() {
            sample.push(Package::new([a.clone()]));
            for b in &s.pool[i + 1..] {
                sample.push(Package::new([a.clone(), b.clone()]));
            }
        }
        let _s = common::span("query.qc_probe");
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for p in &sample {
                    std::hint::black_box(ctx.qc_satisfied(p).expect("qc probe"));
                }
                common::secs(t) * 1e9 / sample.len() as f64
            })
            .collect();
        probe_ns.push(common::median(&reps));
    }
    let us = |v: &[f64]| common::median(v) * 1e6;
    set_layer(report, "query.compile_us", us(&compile));
    set_layer(report, "query.items_us", us(&items));
    set_layer(report, "core.prepare_us", us(&prepare));
    set_layer(report, "query.qc_probe_ns", common::median(&probe_ns));

    // The parallel engine on the same calls: worker busy share and
    // steals over one FRP pass across the scenarios, and ARPP's cost
    // when every candidate sets up a parallel search.
    let par = SolveOptions::default().with_jobs(PARALLEL_JOBS);
    let steals0 = counter_now("enumerate.steals");
    let (mut busy_ns, mut wall_ns) = (0.0, 0.0);
    for s in &inputs.scenarios {
        let _s = common::span("core.frp_parallel");
        let (out, t) = common::timed(|| frp::top_k(&s.inst, &par).expect("parallel FRP"));
        busy_ns += out
            .stats
            .workers
            .iter()
            .map(|w| w.busy_ns as f64)
            .sum::<f64>();
        wall_ns += t * 1e9 * PARALLEL_JOBS as f64;
    }
    set_layer(
        report,
        "core.worker_busy_share",
        if wall_ns > 0.0 {
            busy_ns / wall_ns
        } else {
            0.0
        },
    );
    set_layer(
        report,
        "core.steals",
        (counter_now("enumerate.steals") - steals0) as f64,
    );
    let arpp_par: Vec<f64> = inputs
        .arpp
        .iter()
        .map(|r| {
            let _s = common::span("adjust.arpp_parallel");
            common::timed(|| arpp(&r.inst, &par).expect("parallel ARPP")).1
        })
        .collect();
    set_layer(
        report,
        "adjust.arpp_jobs2_ms",
        common::median(&arpp_par) * 1e3,
    );

    // Adjustment::apply on the deadline instance: the first `n` insert
    // candidates, as the ARPP search builds them.
    let d = &inputs.deadline.inst;
    let inserts: Vec<AdjustOp> = candidate_ops(d)
        .expect("candidates")
        .into_iter()
        .filter(|op| matches!(op, AdjustOp::Insert { .. }))
        .take(DEADLINE_CNF.1)
        .collect();
    let adjustment = Adjustment { ops: inserts };
    let _s = common::span("adjust.apply");
    let reps: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(adjustment.apply(&d.base.db).expect("applies"));
            common::secs(t)
        })
        .collect();
    set_layer(report, "adjust.apply_us", common::median(&reps) * 1e6);
}
