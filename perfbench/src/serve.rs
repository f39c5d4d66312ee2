//! `serve_hot` and `serve_cold`: `pkgrec serve` in-process on loopback,
//! driven by a closed loop of keep-alive clients.
//!
//! The benchmark generates its own rows (a travel catalog and a course
//! catalog), ships them to the service through the text format, and
//! checks every answer against a nested-loop join and a brute-force
//! package enumeration computed from those rows.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pkgrec_core::{
    problems::{cpp, frp, mbp},
    Ext, PreparedInstance, RecInstance, SizeBound,
};
use pkgrec_data::{text, Database};
use pkgrec_query::parser::{parse_fo, parse_query};
use pkgrec_query::Query;
use pkgrec_serve::{
    parse_solve_request, start, ServerConfig, ServerHandle, Service, ServiceConfig,
};
use pkgrec_trace::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, set_layer, Outcome, Report, Tally};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ~32 request shapes, all resident in the 64-entry plan cache.
    Hot,
    /// Every request carries a route/day/budget never sent before.
    Cold,
}

const CITIES: usize = 8;
const FLIGHTS: usize = 400;
const POIS_PER_CITY: usize = 10;
const DAYS: i64 = 7;
const COURSES: usize = 40;
const AREAS: [&str; 3] = ["db", "ai", "sys"];
const POI_TYPES: [&str; 4] = ["museum", "theater", "park", "gallery"];
const HOT_SHAPES: usize = 32;
/// Share of cold requests that are FO-form course queries: 1 in this.
const COLD_FO_EVERY: usize = 4;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const SETUPS: usize = 11;
const MAX_SIZE: usize = 2;
/// Length of one throughput sample.
const SLICE: Duration = Duration::from_millis(500);

/// Whole slices in a window (at least one).
fn slices(window: Duration) -> usize {
    ((window.as_secs_f64() / SLICE.as_secs_f64()).floor() as usize).max(1)
}

/// A value of a generated row, ordered so answers compare as sets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Cell {
    I(i64),
    S(String),
}

type Row = Vec<Cell>;

struct Flight {
    fno: i64,
    from: usize,
    to: usize,
    day: i64,
    price: i64,
}

struct Poi {
    name: String,
    city: usize,
    ty: &'static str,
    ticket: i64,
    time: i64,
}

struct Course {
    cid: i64,
    area: &'static str,
    credits: i64,
    rating: i64,
}

/// The benchmark's own copy of the resident data.
struct World {
    flights: Vec<Flight>,
    pois: Vec<Poi>,
    courses: Vec<Course>,
    prereqs: Vec<(i64, i64)>,
    /// `(from, to, day)` triples served by at least one flight.
    routes: Vec<(usize, usize, i64)>,
    travel_text: String,
    course_text: String,
}

fn city(i: usize) -> String {
    format!("c{i}")
}

impl World {
    fn generate(seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_0001);
        let flights: Vec<Flight> = (0..FLIGHTS)
            .map(|f| {
                let from = rng.gen_range(0..CITIES);
                let mut to = rng.gen_range(0..CITIES);
                while to == from {
                    to = rng.gen_range(0..CITIES);
                }
                Flight {
                    fno: f as i64,
                    from,
                    to,
                    day: rng.gen_range(1..=DAYS),
                    price: rng.gen_range(80..800),
                }
            })
            .collect();
        let mut pois = Vec::new();
        for c in 0..CITIES {
            for p in 0..POIS_PER_CITY {
                pois.push(Poi {
                    name: format!("p{c}_{p}"),
                    city: c,
                    ty: POI_TYPES[rng.gen_range(0..POI_TYPES.len())],
                    ticket: rng.gen_range(0..60),
                    time: rng.gen_range(30..240),
                });
            }
        }
        let courses: Vec<Course> = (0..COURSES)
            .map(|c| Course {
                cid: c as i64,
                area: AREAS[rng.gen_range(0..AREAS.len())],
                credits: rng.gen_range(1..=3),
                rating: rng.gen_range(1..=5),
            })
            .collect();
        let mut prereqs = Vec::new();
        for c in 0..COURSES as i64 {
            for earlier in 0..c {
                if rng.gen_bool(0.06) {
                    prereqs.push((c, earlier));
                }
            }
        }
        let mut routes: Vec<(usize, usize, i64)> =
            flights.iter().map(|f| (f.from, f.to, f.day)).collect();
        routes.sort_unstable();
        routes.dedup();

        let mut travel_text =
            String::from("relation flight(fno: int, from: str, to: str, dd: int, price: int)\n");
        for f in &flights {
            travel_text.push_str(&format!(
                "{}, {}, {}, {}, {}\n",
                f.fno,
                city(f.from),
                city(f.to),
                f.day,
                f.price
            ));
        }
        travel_text
            .push_str("\nrelation poi(name: str, city: str, type: str, ticket: int, time: int)\n");
        for p in &pois {
            travel_text.push_str(&format!(
                "{}, {}, {}, {}, {}\n",
                p.name,
                city(p.city),
                p.ty,
                p.ticket,
                p.time
            ));
        }
        let mut course_text =
            String::from("relation course(cid: int, area: str, credits: int, rating: int)\n");
        for c in &courses {
            course_text.push_str(&format!(
                "{}, {}, {}, {}\n",
                c.cid, c.area, c.credits, c.rating
            ));
        }
        course_text.push_str("\nrelation prereq(cid: int, needs: int)\n");
        for (c, n) in &prereqs {
            course_text.push_str(&format!("{c}, {n}\n"));
        }
        World {
            flights,
            pois,
            courses,
            prereqs,
            routes,
            travel_text,
            course_text,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Problem {
    Eval,
    TopK,
    Bound,
    Count,
}

impl Problem {
    fn of(i: usize) -> Problem {
        [Problem::Eval, Problem::TopK, Problem::Bound, Problem::Count][i % 4]
    }

    fn name(self) -> &'static str {
        match self {
            Problem::Eval => "eval",
            Problem::TopK => "topk",
            Problem::Bound => "bound",
            Problem::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Target {
    Route { from: usize, to: usize, day: i64 },
    Courses { area: usize },
}

/// One `/solve` request, as the benchmark knows it.
#[derive(Debug, Clone)]
struct Req {
    target: Target,
    problem: Problem,
    k: usize,
    budget: f64,
    min_val: Option<f64>,
}

impl Req {
    fn query(&self) -> String {
        match self.target {
            Target::Route { from, to, day } => format!(
                "q(f, p, n, ty, tk, tm) :- flight(f, \"{}\", \"{}\", {day}, p), poi(n, \"{}\", ty, tk, tm).",
                city(from),
                city(to),
                city(to)
            ),
            Target::Courses { area } => format!(
                "q(c, a, k, r) = course(c, a, k, r) & a = \"{}\" & !(exists n. prereq(c, n))",
                AREAS[area]
            ),
        }
    }

    /// `(db, cost column, val column)` of the answer rows.
    fn columns(&self) -> (&'static str, usize, usize) {
        match self.target {
            Target::Route { .. } => ("travel", 4, 5),
            Target::Courses { .. } => ("courses", 2, 3),
        }
    }

    fn body(&self) -> String {
        let (db, cost, val) = self.columns();
        let mut body = format!(
            "{{\"db\":\"{db}\",\"problem\":\"{}\",\"query\":{},\"k\":{},\"budget\":{:?},\
\"cost\":\"sum:{cost}\",\"val\":\"sum:{val}\",\"max_size\":{MAX_SIZE}",
            self.problem.name(),
            common::json_string(&self.query()),
            self.k,
            self.budget,
        );
        if let Some(m) = self.min_val {
            body.push_str(&format!(",\"min_val\":{m:?}"));
        }
        body.push('}');
        body
    }

    /// The same request as a library instance (per-layer probes).
    fn instance(&self, db: Arc<Database>, query: Query) -> RecInstance {
        let (_, cost, val) = self.columns();
        RecInstance::new(db, query)
            .with_cost(pkgrec_core::PackageFn::sum_col(cost, true))
            .with_val(pkgrec_core::PackageFn::sum_col(val, true))
            .with_k(self.k)
            .with_budget(self.budget)
            .with_size_bound(SizeBound::Constant(MAX_SIZE))
    }
}

/// The hot request shapes. A route's item pool is 10 POIs per flight,
/// so every seed draws the same mix of 1-, 2- and 3-flight routes and
/// the same budget ladder: seeds differ in their data, not in how much
/// work a shape is.
fn hot_shapes(world: &World, seed: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_0002);
    let flights_on = |&(from, to, day): &(usize, usize, i64)| {
        world
            .flights
            .iter()
            .filter(|f| (f.from, f.to, f.day) == (from, to, day))
            .count()
    };
    (0..HOT_SHAPES)
        .map(|i| {
            let slot = i / 4;
            let flights = match slot {
                0..=4 => 1,
                5 | 6 => 2,
                _ => 3,
            };
            let routes: Vec<_> = world
                .routes
                .iter()
                .filter(|r| flights_on(r) == flights)
                .collect();
            let &(from, to, day) = routes[rng.gen_range(0..routes.len())];
            Req {
                target: Target::Route { from, to, day },
                problem: Problem::of(i),
                k: 1 + slot % 3,
                budget: (45 + 15 * slot) as f64,
                min_val: (Problem::of(i) == Problem::Count).then_some(150.0),
            }
        })
        .collect()
}

/// The `i`-th cold request: a `(route, day, budget)` or
/// `(area, budget)` key no other index produces. The fractional part of
/// the budget is unique per index (and below 0.1, so integral costs
/// compare as if it were absent).
fn cold_request(world: &World, i: usize) -> Req {
    let budget_base = (40 + (i / 7) % 110) as f64;
    let unique = i as f64 * 1e-7;
    let problem = Problem::of(i / 2);
    let k = 1 + (i / 8) % 3;
    if i % COLD_FO_EVERY == COLD_FO_EVERY - 1 {
        return Req {
            target: Target::Courses {
                area: (i / COLD_FO_EVERY) % AREAS.len(),
            },
            problem,
            k,
            budget: (2 + (i / 5) % 5) as f64 + unique,
            min_val: (problem == Problem::Count).then_some(5.0),
        };
    }
    let (from, to, day) = world.routes[(i * 7919) % world.routes.len()];
    Req {
        target: Target::Route { from, to, day },
        problem,
        k,
        budget: budget_base + unique,
        min_val: (problem == Problem::Count).then_some(150.0),
    }
}

// ---- independent answers ---------------------------------------------

/// `Q(D)` by nested loops over the benchmark's own rows.
fn pool(world: &World, target: Target) -> Vec<Row> {
    let mut rows = Vec::new();
    match target {
        Target::Route { from, to, day } => {
            for f in &world.flights {
                if f.from != from || f.to != to || f.day != day {
                    continue;
                }
                for p in &world.pois {
                    if p.city == to {
                        rows.push(vec![
                            Cell::I(f.fno),
                            Cell::I(f.price),
                            Cell::S(p.name.clone()),
                            Cell::S(p.ty.to_string()),
                            Cell::I(p.ticket),
                            Cell::I(p.time),
                        ]);
                    }
                }
            }
        }
        Target::Courses { area } => {
            for c in &world.courses {
                let has_prereq = world.prereqs.iter().any(|&(cid, _)| cid == c.cid);
                if c.area == AREAS[area] && !has_prereq {
                    rows.push(vec![
                        Cell::I(c.cid),
                        Cell::S(c.area.to_string()),
                        Cell::I(c.credits),
                        Cell::I(c.rating),
                    ]);
                }
            }
        }
    }
    rows.sort();
    rows
}

fn int_at(row: &Row, col: usize) -> f64 {
    match &row[col] {
        Cell::I(v) => *v as f64,
        Cell::S(_) => panic!("column {col} is not numeric"),
    }
}

/// Ratings of every valid package of size ≤ 2, best first.
fn valid_ratings(req: &Req, rows: &[Row]) -> Vec<f64> {
    let (_, cost_col, val_col) = req.columns();
    let mut vals = Vec::new();
    let mut consider = |members: &[&Row]| {
        let cost: f64 = members.iter().map(|r| int_at(r, cost_col)).sum();
        if cost <= req.budget {
            vals.push(members.iter().map(|r| int_at(r, val_col)).sum::<f64>());
        }
    };
    consider(&[]);
    for (i, a) in rows.iter().enumerate() {
        consider(&[a]);
        for b in &rows[i + 1..] {
            consider(&[a, b]);
        }
    }
    vals.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    vals
}

fn cell_of(j: &Json) -> Option<Cell> {
    match j {
        Json::Num(x) if x.fract() == 0.0 => Some(Cell::I(*x as i64)),
        Json::Str(s) => Some(Cell::S(s.clone())),
        _ => None,
    }
}

fn row_of(j: &Json) -> Option<Row> {
    j.as_array()?.iter().map(cell_of).collect()
}

/// Check one response body against the independent answer; `Err`
/// names the first disagreement.
fn check(req: &Req, rows: &[Row], body: &str) -> Result<(), String> {
    let root = json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    if root.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("status is not ok: {body}"));
    }
    if root.get("exact").and_then(Json::as_bool) != Some(true) {
        return Err(format!("answer is not exact: {body}"));
    }
    let result = root.get("result").ok_or("no result")?;
    let vals = || valid_ratings(req, rows);
    match req.problem {
        Problem::Eval => {
            let mut got: Vec<Row> = result
                .as_array()
                .ok_or("eval result is not an array")?
                .iter()
                .map(|t| row_of(t).ok_or("bad tuple"))
                .collect::<Result<_, _>>()?;
            got.sort();
            if got != rows {
                return Err(format!("eval: {} rows, expected {}", got.len(), rows.len()));
            }
        }
        Problem::TopK => {
            let vals = vals();
            if vals.len() < req.k {
                return match result {
                    Json::Null => Ok(()),
                    _ => Err("topk: expected null (fewer than k valid packages)".into()),
                };
            }
            let pkgs = result.as_array().ok_or("topk result is not an array")?;
            if pkgs.len() != req.k {
                return Err(format!("topk: {} packages, expected {}", pkgs.len(), req.k));
            }
            let (_, cost_col, val_col) = req.columns();
            let mut seen = Vec::new();
            for (rank, p) in pkgs.iter().enumerate() {
                let mut items: Vec<Row> = p
                    .get("items")
                    .and_then(Json::as_array)
                    .ok_or("package without items")?
                    .iter()
                    .map(|t| row_of(t).ok_or("bad tuple"))
                    .collect::<Result<_, _>>()?;
                items.sort();
                items.dedup();
                if items.len() > MAX_SIZE {
                    return Err("topk: package over the size bound".into());
                }
                if items.iter().any(|t| rows.binary_search(t).is_err()) {
                    return Err("topk: package item not in Q(D)".into());
                }
                let cost: f64 = items.iter().map(|r| int_at(r, cost_col)).sum();
                if cost > req.budget {
                    return Err("topk: package over budget".into());
                }
                let val: f64 = items.iter().map(|r| int_at(r, val_col)).sum();
                if p.get("val").and_then(Json::as_f64) != Some(val) || val != vals[rank] {
                    return Err(format!(
                        "topk: rank {rank} rates {val}, expected {}",
                        vals[rank]
                    ));
                }
                if seen.contains(&items) {
                    return Err("topk: duplicate package".into());
                }
                seen.push(items);
            }
        }
        Problem::Bound => {
            let vals = vals();
            let expected = vals.get(req.k - 1).copied();
            let got = match result {
                Json::Null => None,
                j => Some(j.as_f64().ok_or("bound is not a number")?),
            };
            if got != expected {
                return Err(format!("bound: got {got:?}, expected {expected:?}"));
            }
        }
        Problem::Count => {
            let min = req.min_val.unwrap_or(f64::NEG_INFINITY);
            let expected = vals().iter().filter(|&&v| v >= min).count() as f64;
            if result.as_f64() != Some(expected) {
                return Err(format!("count: got {result:?}, expected {expected}"));
            }
        }
    }
    Ok(())
}

// ---- HTTP client -----------------------------------------------------

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the service");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone stream");
        Conn {
            writer,
            reader: BufReader::new(stream),
        }
    }

    /// One keep-alive round trip: `(status, body)`.
    fn solve(&mut self, body: &str) -> std::io::Result<(u16, String)> {
        let req = format!(
            "POST /solve HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some(v) = l.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v
                    .trim()
                    .parse()
                    .map_err(|_| std::io::Error::other("bad length"))?;
            }
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf)
            .map(|b| (status, b))
            .map_err(|_| std::io::Error::other("body is not UTF-8"))
    }
}

/// The body without its leading per-request id, for comparing answers.
fn strip_request_id(body: &str) -> String {
    match body
        .strip_prefix("{\"request_id\":")
        .and_then(|rest| rest.split_once(','))
    {
        Some((_, tail)) => format!("{{{tail}"),
        None => body.to_string(),
    }
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Which request a client sends next.
#[derive(Clone)]
enum Source {
    /// Uniform random choice among the hot shapes.
    Hot(Arc<Vec<Req>>, u64),
    /// Cold requests `first + CLIENTS·j + client`.
    Cold(usize),
}

struct ClientResult {
    tally: Tally,
    /// Successful answers per slice of the window.
    per_slice: Vec<u64>,
    error: Option<String>,
}

/// A closed-loop client: sends its next request only after the last
/// answer arrived, until `deadline`. Answers are checked between
/// requests, outside the timed round trip; a hot shape's answer is
/// checked in full once and compared byte for byte afterwards.
fn client_loop(
    conn: &mut Conn,
    world: &World,
    source: &Source,
    client: usize,
    started: Instant,
    deadline: Instant,
) -> ClientResult {
    let mut tally = Tally::default();
    let mut per_slice = vec![0u64; slices(deadline - started)];
    let mut error = None;
    let mut verified: HashMap<usize, u64> = HashMap::new();
    let mut rng = match source {
        Source::Hot(_, seed) => StdRng::seed_from_u64(seed ^ ((client as u64 + 1) * 0x9E37)),
        Source::Cold(_) => StdRng::seed_from_u64(0),
    };
    let mut j = 0usize;
    while Instant::now() < deadline {
        let (key, req) = match source {
            Source::Hot(shapes, _) => {
                let s = rng.gen_range(0..shapes.len());
                (Some(s), shapes[s].clone())
            }
            Source::Cold(first) => (None, cold_request(world, first + CLIENTS * j + client)),
        };
        j += 1;
        let body = req.body();
        let t = Instant::now();
        let answer = conn.solve(&body);
        let dt = common::secs(t);
        let (status, resp) = match answer {
            Ok(a) => a,
            Err(e) => {
                tally.record(dt, true);
                error.get_or_insert(format!("transport error: {e}"));
                break;
            }
        };
        tally.record(dt, status != 200);
        if status == 200 {
            let slice = (started.elapsed().as_secs_f64() / SLICE.as_secs_f64()) as usize;
            if let Some(n) = per_slice.get_mut(slice) {
                *n += 1;
            }
        }
        if status != 200 || error.is_some() {
            continue;
        }
        let stripped = strip_request_id(&resp);
        let h = hash_of(&stripped);
        if key.is_some_and(|k| verified.get(&k) == Some(&h)) {
            continue;
        }
        match check(&req, &pool(world, req.target), &stripped) {
            Ok(()) => {
                if let Some(k) = key {
                    verified.insert(k, h);
                }
            }
            Err(e) => error = Some(format!("{e} (request {body})")),
        }
    }
    ClientResult {
        tally,
        per_slice,
        error,
    }
}

/// A started service with its clients connected and caches warm.
struct Rig {
    server: ServerHandle,
    conns: Vec<Conn>,
}

/// Load the data through the text format, start the server, connect
/// the clients and warm up. Returns the rig and the first error seen.
fn set_up(world: &World, mode: Mode, shapes: &[Req]) -> (Rig, Option<String>) {
    let travel = {
        let _s = common::span("data.text_parse");
        text::parse_database(&world.travel_text).expect("travel text parses")
    };
    let courses = text::parse_database(&world.course_text).expect("course text parses");
    let mut service = Service::new(ServiceConfig::default());
    service.add_db("travel", travel);
    service.add_db("courses", courses);
    let server = start(
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            ..ServerConfig::default()
        },
        service,
    )
    .expect("bind a loopback port");
    let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::open(server.addr())).collect();
    let mut error = None;
    let warm: Vec<Req> = match mode {
        Mode::Hot => shapes.to_vec(),
        Mode::Cold => (0..64).map(|i| cold_request(world, i)).collect(),
    };
    for (i, req) in warm.iter().enumerate() {
        let conn = &mut conns[i % CLIENTS];
        match conn.solve(&req.body()) {
            Ok((200, body)) => {
                if let Err(e) = check(req, &pool(world, req.target), &strip_request_id(&body)) {
                    error.get_or_insert(e);
                }
            }
            Ok((status, body)) => {
                error.get_or_insert(format!("warm-up got {status}: {body}"));
            }
            Err(e) => {
                error.get_or_insert(format!("warm-up transport error: {e}"));
            }
        }
    }
    (Rig { server, conns }, error)
}

/// Drive the measuring window: one thread per client connection.
fn drive(
    rig: &mut Rig,
    world: &World,
    source: &Source,
    window: Duration,
) -> (Tally, f64, Option<String>) {
    let started = Instant::now();
    let deadline = started + window;
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || client_loop(conn, world, source, c, started, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = common::secs(started);
    let mut tally = Tally::default();
    let mut error = None;
    // Throughput samples: answers per whole slice of the window.
    let mut per_slice = vec![0u64; slices(window)];
    for r in results {
        for (total, n) in per_slice.iter_mut().zip(&r.per_slice) {
            *total += n;
        }
        tally.merge(r.tally);
        if error.is_none() {
            error = r.error;
        }
    }
    for n in per_slice {
        tally.push_rate(n, SLICE.as_secs_f64());
    }
    (tally, elapsed, error)
}

pub fn run(args: &common::Args, mode: Mode) -> Outcome {
    let mut setup_times = Vec::new();
    let mut rig = None;
    let mut error = None;
    let mut world_keep = None;
    let mut shapes_keep = Vec::new();
    for _ in 0..SETUPS {
        if let Some(Rig { server, conns }) = rig.take() {
            drop(conns);
            server.shutdown();
            common::release_freed_heap();
        }
        let t = Instant::now();
        let world = World::generate(args.seed);
        let shapes = hot_shapes(&world, args.seed);
        let (r, e) = set_up(&world, mode, &shapes);
        setup_times.push(common::secs(t));
        error = error.or(e);
        rig = Some(r);
        world_keep = Some(world);
        shapes_keep = shapes;
    }
    let mut rig = rig.expect("at least one set-up");
    let world = world_keep.expect("at least one set-up");
    let source = match mode {
        Mode::Hot => Source::Hot(Arc::new(shapes_keep.clone()), args.seed),
        Mode::Cold => Source::Cold(64),
    };

    let _tracing = args
        .trace
        .then(|| (pkgrec_trace::scoped(), pkgrec_trace::timeline::scoped()));
    let hits0 = counter(&rig.server.service().metrics.plan_cache_hits);
    let misses0 = counter(&rig.server.service().metrics.plan_cache_misses);
    let (tally, elapsed, run_error) = {
        let _s = common::span("workload.window");
        drive(&mut rig, &world, &source, args.window())
    };
    if error.is_none() {
        error = run_error;
    }
    let mut report;
    if args.trace {
        report = common::per_layer_report();
        let service = Arc::clone(rig.server.service());
        let m = &service.metrics;
        set_layer(
            &mut report,
            "serve.plan_cache_hits",
            (counter(&m.plan_cache_hits) - hits0) as f64,
        );
        set_layer(
            &mut report,
            "serve.plan_cache_misses",
            (counter(&m.plan_cache_misses) - misses0) as f64,
        );
        let requests = tally.attempted.max(1) as f64;
        let trace = m.trace.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let per_req = |name: &str| trace.counters.get(name).copied().unwrap_or(0) as f64 / requests;
        set_layer(
            &mut report,
            "query.bitset_probes",
            per_req("query.bitset_probes"),
        );
        set_layer(&mut report, "core.nodes", per_req("enumerate.nodes"));
        let nodes = trace.counters.get("enumerate.nodes").copied().unwrap_or(0) as f64;
        let valid = trace.counters.get("enumerate.valid").copied().unwrap_or(0) as f64;
        set_layer(
            &mut report,
            "core.valid_per_node",
            if nodes > 0.0 { valid / nodes } else { 0.0 },
        );
        set_layer(
            &mut report,
            "core.pruned.cost",
            per_req("enumerate.pruned.cost"),
        );
        set_layer(
            &mut report,
            "core.pruned.compat",
            per_req("enumerate.pruned.compat"),
        );
        set_layer(
            &mut report,
            "core.pruned.floor",
            per_req("enumerate.pruned.floor"),
        );
        set_layer(&mut report, "core.steals", per_req("enumerate.steals"));
        set_layer(&mut report, "traced.ops_per_s", tally.ops_per_s());
        let probe_error = probe_layers(&mut report, &world, mode, &shapes_keep, &service, &tally);
        if error.is_none() {
            error = probe_error;
        }
    } else {
        report = Report::default();
        report.set("setup_s", common::median(&setup_times), "s");
        report.set("peak_rss_mb", common::peak_rss_mb(), "MB");
        tally.report_into(&mut report);
    }
    let Rig { server, conns } = rig;
    drop(conns);
    server.shutdown();
    if let Some(e) = &error {
        eprintln!("perfbench: serve check failed: {e}");
    }
    eprintln!(
        "perfbench: {} requests in {elapsed:.2}s, {} failed",
        tally.attempted, tally.failed
    );
    Outcome {
        correct: error.is_none(),
        attempted: tally.attempted,
        failed: tally.failed,
        report,
        trace_json: args.trace.then(common::take_spans_json),
    }
}

fn counter(c: &std::sync::atomic::AtomicU64) -> u64 {
    c.load(std::sync::atomic::Ordering::Relaxed)
}

/// Median time per call of `f` over `reps` calls, in seconds.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(common::secs(t));
    }
    common::median(&times)
}

/// Per-layer timings of the request path, one library call at a time,
/// on the workload's own request shapes.
fn probe_layers(
    report: &mut Report,
    world: &World,
    mode: Mode,
    hot: &[Req],
    service: &Arc<Service>,
    tally: &Tally,
) -> Option<String> {
    let reps = 7;
    let parse_s = {
        let _s = common::span("data.text_parse");
        per_call(reps, || {
            text::parse_database(&world.travel_text).expect("parses");
        })
    };
    set_layer(report, "data.text_parse_ms", parse_s * 1e3);

    let travel = Arc::new(text::parse_database(&world.travel_text).expect("parses"));
    let courses = Arc::new(text::parse_database(&world.course_text).expect("parses"));
    let rss0 = common::rss_mb();
    let (_, build_s) = {
        let _s = common::span("data.columnar");
        common::timed(|| travel.relation("flight").expect("flight").columnar())
    };
    set_layer(report, "data.columnar_build_s", build_s);
    set_layer(
        report,
        "data.columnar_rss_mb",
        (common::rss_mb() - rss0).max(0.0),
    );

    // The requests whose layers we time: the hot shapes, or cold keys
    // beyond any index the measuring window can have reached.
    let reqs: Vec<Req> = match mode {
        Mode::Hot => hot.to_vec(),
        Mode::Cold => (0..HOT_SHAPES)
            .map(|i| cold_request(world, 900_000 + i))
            .collect(),
    };
    let (mut parse, mut compile, mut items, mut prepare, mut solve, mut decode, mut handle) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut error = None;
    for req in &reqs {
        let db = match req.target {
            Target::Route { .. } => Arc::clone(&travel),
            Target::Courses { .. } => Arc::clone(&courses),
        };
        let text = req.query();
        let body = req.body();
        let (query, t) = {
            let _s = common::span("query.parse");
            common::timed(|| {
                parse_query(&text)
                    .or_else(|_| parse_fo(&text))
                    .expect("query parses")
            })
        };
        parse.push(t);
        let (_, t) = {
            let _s = common::span("query.compile");
            common::timed(|| query.compile(&db).expect("compiles"))
        };
        compile.push(t);
        let inst = req.instance(Arc::clone(&db), query);
        let (_, t) = {
            let _s = common::span("query.items");
            common::timed(|| inst.items().expect("items"))
        };
        items.push(t);
        let (prepared, t) = {
            let _s = common::span("core.prepare");
            common::timed(|| PreparedInstance::new(inst).expect("prepares"))
        };
        prepare.push(t);
        let ctx = prepared.context();
        let opts = pkgrec_core::SolveOptions::default().with_jobs(1);
        let t = {
            let _s = common::span("core.solve");
            match req.problem {
                Problem::Eval => None,
                Problem::TopK => Some(common::timed(|| frp::top_k_in(&ctx, &opts).map(|_| ())).1),
                Problem::Bound => {
                    Some(common::timed(|| mbp::maximum_bound_in(&ctx, &opts).map(|_| ())).1)
                }
                Problem::Count => {
                    let bound = req.min_val.map_or(Ext::NegInf, Ext::from);
                    Some(common::timed(|| cpp::count_valid_in(&ctx, bound, &opts).map(|_| ())).1)
                }
            }
        };
        solve.extend(t);
        let (decoded, t) = {
            let _s = common::span("serve.decode");
            common::timed(|| parse_solve_request(body.as_bytes()))
        };
        decode.push(t);
        if decoded.is_err() {
            error.get_or_insert(format!("request does not decode: {body}"));
        }
        let ((status, resp), t) = {
            let _s = common::span("serve.handle");
            common::timed(|| service.handle_solve(body.as_bytes()))
        };
        handle.push(t);
        if status != 200 {
            error.get_or_insert(format!("in-process solve got {status}: {resp}"));
        } else if let Err(e) = check(req, &pool(world, req.target), &strip_request_id(&resp)) {
            error.get_or_insert(e);
        }
    }
    let us = |v: &[f64]| common::median(v) * 1e6;
    set_layer(report, "query.parse_us", us(&parse));
    set_layer(report, "query.compile_us", us(&compile));
    set_layer(report, "query.items_us", us(&items));
    set_layer(report, "core.prepare_us", us(&prepare));
    set_layer(report, "core.solve_us", us(&solve));
    set_layer(report, "serve.decode_us", us(&decode));
    let handle_us = us(&handle);
    set_layer(report, "serve.handle_us", handle_us);
    let tcp_us = tally.latency.quantile(0.5);
    set_layer(report, "serve.transport_us", (tcp_us - handle_us).max(0.0));
    error
}
