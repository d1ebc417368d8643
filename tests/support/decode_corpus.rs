//! The request-decoding corpus: well-formed requests, structural variants
//! of them (reordered members, duplicate keys, missing and mistyped fields,
//! bad edges) and byte-level mutants (flips and truncations). Shared by
//! `tests/request_decode_equivalence.rs`, `tests/daemon_protocol.rs` and
//! the `schedule -` test in `crates/experiments/tests/`, which include this
//! file with `#[path]`; it uses only crates all three can name.

#![allow(dead_code)]

use mals_experiments::{example_request, generated_request, SolveRequest};
use mals_platform::Platform;
use mals_util::Json;

/// One corpus entry: what it is, and the request text.
pub struct Case {
    /// A short description, for failure messages.
    pub label: String,
    /// The request document (possibly malformed).
    pub text: String,
}

/// Mutants sit at every this many bytes of a document.
pub const STRIDE: usize = 97;

/// The well-formed requests the corpus starts from: the paper's toy DAG, a
/// daggen DAG and an LU DAG, plus one request carrying every optional
/// field.
pub fn base_requests() -> Vec<(&'static str, SolveRequest)> {
    let lu = mals_gen::lu_dag(3, &mals_gen::KernelCosts::table1());
    let mut full = example_request();
    full.solver = "portfolio".into();
    full.threads = 2;
    full.seed = Some(u64::MAX);
    full.solvers = vec!["memheft".into(), "memminmin".into()];
    full.deadline_ms = Some(5_000);
    full.limits.node_limit = 1_000;
    vec![
        ("dex", example_request()),
        ("daggen-40", generated_request(40, 3)),
        (
            "lu-3",
            SolveRequest::new(lu, Platform::single_pair(1e3, 1e3), "memminmin"),
        ),
        ("dex-all-fields", full),
    ]
}

/// The first member `key` of an object.
fn member<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(pairs) = json else {
        panic!("not an object")
    };
    &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
}

fn pairs(json: &mut Json) -> &mut Vec<(String, Json)> {
    match json {
        Json::Obj(pairs) => pairs,
        _ => panic!("not an object"),
    }
}

fn items(json: &mut Json) -> &mut Vec<Json> {
    match json {
        Json::Arr(items) => items,
        _ => panic!("not an array"),
    }
}

/// The document of `request` with `edit` applied.
fn edited(request: &SolveRequest, edit: impl FnOnce(&mut Json)) -> String {
    let mut json = request.to_json();
    edit(&mut json);
    json.to_compact()
}

/// Structural variants of `request` (a request with at least two tasks and
/// two edges), each a compact document.
fn variants(request: &SolveRequest) -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();
    let mut add = |label: &'static str, edit: &dyn Fn(&mut Json)| {
        out.push((label, edited(request, edit)));
    };
    // Member order.
    add("graph-last", &|j| {
        let p = pairs(j);
        let at = p.iter().position(|(k, _)| k == "graph").unwrap();
        let g = p.remove(at);
        p.push(g);
    });
    add("graph-first", &|j| {
        let p = pairs(j);
        let at = p.iter().position(|(k, _)| k == "graph").unwrap();
        let g = p.remove(at);
        p.insert(0, g);
    });
    add("edges-before-tasks", &|j| {
        pairs(member(j, "graph")).reverse()
    });
    add("fields-reversed", &|j| {
        let g = member(j, "graph");
        for list in ["tasks", "edges"] {
            for item in items(member(g, list)) {
                pairs(item).reverse();
            }
        }
    });
    add("unknown-members", &|j| {
        pairs(j).insert(1, ("extra".into(), Json::Arr(vec![Json::Null])));
        let g = member(j, "graph");
        pairs(g).insert(0, ("meta".into(), Json::obj([("tasks", Json::Null)])));
        pairs(&mut items(member(g, "tasks"))[0]).push(("x".into(), Json::Bool(true)));
        pairs(&mut items(member(g, "edges"))[1]).insert(0, ("y".into(), Json::str("z")));
    });
    // Duplicate keys: the first occurrence counts.
    add("dup-graph-second-garbage", &|j| {
        pairs(j).push(("graph".into(), Json::Num(5.0)));
    });
    add("dup-graph-first-garbage", &|j| {
        pairs(j).insert(0, ("graph".into(), Json::Num(5.0)));
    });
    add("dup-solver", &|j| {
        pairs(j).push(("solver".into(), Json::str("cplex")));
    });
    add("dup-solver-first-bad", &|j| {
        pairs(j).insert(0, ("solver".into(), Json::Num(1.0)));
    });
    add("dup-tasks", &|j| {
        let g = member(j, "graph");
        pairs(g).push(("tasks".into(), Json::Arr(Vec::new())));
    });
    add("dup-tasks-first-bad", &|j| {
        let g = member(j, "graph");
        pairs(g).insert(0, ("tasks".into(), Json::Obj(Vec::new())));
    });
    add("dup-edges", &|j| {
        let g = member(j, "graph");
        pairs(g).push(("edges".into(), Json::Null));
    });
    add("dup-task-blue", &|j| {
        let t = &mut items(member(member(j, "graph"), "tasks"))[1];
        pairs(t).push(("blue".into(), Json::str("3")));
    });
    add("dup-task-blue-first-bad", &|j| {
        let t = &mut items(member(member(j, "graph"), "tasks"))[1];
        pairs(t).insert(0, ("blue".into(), Json::str("3")));
    });
    add("dup-edge-src-out-of-range", &|j| {
        let e = &mut items(member(member(j, "graph"), "edges"))[1];
        pairs(e).push(("src".into(), Json::Num(1e6)));
    });
    // Missing fields.
    for key in ["solver", "graph", "platform"] {
        add(key, &|j| pairs(j).retain(|(k, _)| k != key));
    }
    add("missing-tasks", &|j| {
        pairs(member(j, "graph")).retain(|(k, _)| k != "tasks")
    });
    add("missing-edges", &|j| {
        pairs(member(j, "graph")).retain(|(k, _)| k != "edges")
    });
    for key in ["name", "blue", "red"] {
        add(key, &|j| {
            let t = &mut items(member(member(j, "graph"), "tasks"))[1];
            pairs(t).retain(|(k, _)| k != key);
        });
    }
    for key in ["src", "dst", "size", "comm"] {
        add(key, &|j| {
            let e = &mut items(member(member(j, "graph"), "edges"))[1];
            pairs(e).retain(|(k, _)| k != key);
        });
    }
    // Mistyped fields.
    let set_edge = |index: usize, key: &'static str, value: Json| {
        move |j: &mut Json| {
            let e = &mut items(member(member(j, "graph"), "edges"))[index];
            *member(e, key) = value.clone();
        }
    };
    let set_task = |index: usize, key: &'static str, value: Json| {
        move |j: &mut Json| {
            let t = &mut items(member(member(j, "graph"), "tasks"))[index];
            *member(t, key) = value.clone();
        }
    };
    add("src-fraction", &set_edge(1, "src", Json::Num(1.5)));
    add("src-negative", &set_edge(1, "src", Json::Num(-1.0)));
    add("src-string", &set_edge(1, "src", Json::str("0")));
    add("src-huge", &set_edge(1, "src", Json::Num(1e300)));
    add(
        "src-beyond-u32",
        &set_edge(1, "src", Json::Num(2f64.powi(40))),
    );
    add("dst-out-of-range", &set_edge(1, "dst", Json::Num(1e6)));
    add("size-string", &set_edge(0, "size", Json::str("1")));
    add("comm-null", &set_edge(1, "comm", Json::Null));
    add("size-negative", &set_edge(1, "size", Json::Num(-1.0)));
    add("size-1e308", &set_edge(1, "size", Json::Num(1e308)));
    add("blue-string", &set_task(1, "blue", Json::str("3")));
    add("name-number", &set_task(0, "name", Json::Num(5.0)));
    add("red-1e308", &set_task(1, "red", Json::Num(1e308)));
    add("task-not-object", &|j| {
        items(member(member(j, "graph"), "tasks"))[1] = Json::Num(7.0);
    });
    add("edge-array", &|j| {
        items(member(member(j, "graph"), "edges"))[0] = Json::Arr(vec![Json::Num(0.0)]);
    });
    add("graph-number", &|j| *member(j, "graph") = Json::Num(5.0));
    add("graph-array", &|j| {
        *member(j, "graph") = Json::Arr(Vec::new())
    });
    add("tasks-object", &|j| {
        *member(member(j, "graph"), "tasks") = Json::Obj(Vec::new())
    });
    add("edges-null", &|j| {
        *member(member(j, "graph"), "edges") = Json::Null
    });
    add("threads-negative", &|j| {
        *member(j, "threads") = Json::Num(-1.0)
    });
    add("threads-600", &|j| *member(j, "threads") = Json::Num(600.0));
    add("seed-text", &|j| {
        pairs(j).push(("seed".into(), Json::str("abc")))
    });
    add("seed-u64-max", &|j| {
        pairs(j).push(("seed".into(), Json::str(u64::MAX.to_string())))
    });
    add("solvers-number", &|j| {
        pairs(j).push(("solvers".into(), Json::Arr(vec![Json::Num(1.0)])))
    });
    add("deadline-fraction", &|j| {
        pairs(j).push(("deadline_ms".into(), Json::Num(0.5)))
    });
    add("limits-fraction", &|j| {
        *member(member(j, "limits"), "node_limit") = Json::Num(1.5)
    });
    add("v2", &|j| *member(j, "v") = Json::Num(2.0));
    add("v-text", &|j| *member(j, "v") = Json::str("x"));
    add("v-null", &|j| *member(j, "v") = Json::Null);
    add("platform-no-procs", &|j| {
        *member(member(j, "platform"), "blue_procs") = Json::Num(0.0)
    });
    add("platform-mem-text", &|j| {
        *member(member(j, "platform"), "mem_red") = Json::str("x")
    });
    // Bad edges: self-loop, repeats, and several faults at once (the first
    // in document order must win).
    add("self-loop", &|j| {
        let e = &mut items(member(member(j, "graph"), "edges"))[1];
        let src = member(e, "src").clone();
        *member(e, "dst") = src;
    });
    add("dup-edge-last", &|j| {
        let edges = items(member(member(j, "graph"), "edges"));
        let first = edges[0].clone();
        edges.push(first);
    });
    add("dup-edge-middle", &|j| {
        let edges = items(member(member(j, "graph"), "edges"));
        let first = edges[0].clone();
        edges.insert(1, first);
    });
    add("dup-then-field-error", &|j| {
        let edges = items(member(member(j, "graph"), "edges"));
        let first = edges[0].clone();
        edges.insert(1, first);
        *member(edges.last_mut().unwrap(), "size") = Json::Null;
    });
    add("field-error-then-dup", &|j| {
        let edges = items(member(member(j, "graph"), "edges"));
        let first = edges[0].clone();
        edges.push(first);
        *member(&mut edges[1], "comm") = Json::str("1");
    });
    add("range-then-self-loop", &|j| {
        let edges = items(member(member(j, "graph"), "edges"));
        *member(&mut edges[0], "dst") = Json::Num(1e6);
        let src = member(&mut edges[1], "src").clone();
        *member(&mut edges[1], "dst") = src;
    });
    add("task-and-edge-errors", &|j| {
        let g = member(j, "graph");
        *member(&mut items(member(g, "edges"))[0], "src") = Json::Null;
        *member(&mut items(member(g, "tasks"))[1], "red") = Json::Null;
    });
    add("two-task-errors", &|j| {
        let tasks = items(member(member(j, "graph"), "tasks"));
        *member(&mut tasks[1], "red") = Json::Null;
        *member(&mut tasks[0], "name") = Json::Null;
    });
    add("graph-copied-elsewhere", &|j| {
        let g = member(j, "graph").clone();
        pairs(j).push(("shadow".into(), g));
    });
    out
}

/// Byte-level mutants of `text`: at every [`STRIDE`]-th offset, one byte
/// flipped (kept ASCII, so the text stays UTF-8) and the text truncated.
pub fn mutants(label: &str, text: &str) -> Vec<Case> {
    const MASKS: [u8; 7] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40];
    assert!(text.is_ascii());
    let mut out = Vec::new();
    for (k, at) in (0..text.len()).step_by(STRIDE).enumerate() {
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] ^= MASKS[k % MASKS.len()];
        out.push(Case {
            label: format!("{label} flip@{at}"),
            text: String::from_utf8(bytes).expect("ASCII stays UTF-8"),
        });
        out.push(Case {
            label: format!("{label} cut@{at}"),
            text: text[..at].to_string(),
        });
    }
    out
}

/// Documents that are not request objects at all, and a semantic error
/// followed by a syntax error (the syntax error must win).
fn odd_documents() -> Vec<(&'static str, String)> {
    let late_syntax = format!("{} x", example_request().to_json().to_compact());
    let mut missing_then_syntax = example_request().to_json().to_compact();
    missing_then_syntax = missing_then_syntax.replacen("\"solver\"", "\"solve\"", 1);
    missing_then_syntax.pop();
    missing_then_syntax.push_str(",\"z\":1e999}");
    let number_1e999 = generated_request(40, 3).to_json().to_compact().replacen(
        "\"size\":",
        "\"size\":1e999,\"_\":",
        1,
    );
    vec![
        ("array", "[1, 2, 3]".into()),
        ("string", "\"memheft\"".into()),
        ("number", "5".into()),
        ("null", "null".into()),
        ("empty-object", "{}".into()),
        ("empty", "".into()),
        ("deep", "[".repeat(200)),
        ("trailing", late_syntax),
        ("semantic-then-1e999", missing_then_syntax),
        ("op-ping", r#"{"op":"ping","graph":5}"#.into()),
        (
            "escaped-keys",
            r#"{"solv\u0065r":"memheft","gr\u0061ph":{"t\u0061sks":[{"n\u0061me":"a\n","blue":1,"red":1}],"edges":[]},"platform":{"blue_procs":1,"red_procs":1}}"#.into(),
        ),
        ("number-1e999", number_1e999),
    ]
}

/// The whole corpus: each base request compact and pretty, its structural
/// variants, the odd documents, and the byte mutants of every compact base
/// document and of one pretty one.
pub fn corpus() -> Vec<Case> {
    let mut out = Vec::new();
    let case = |label: String, text: String| Case { label, text };
    for (name, request) in base_requests() {
        let json = request.to_json();
        let compact = json.to_compact();
        out.push(case(format!("{name} compact"), compact.clone()));
        out.push(case(format!("{name} pretty"), json.to_pretty()));
        out.extend(mutants(name, &compact));
        if name == "daggen-40" {
            out.extend(mutants("daggen-40 pretty", &json.to_pretty()));
        }
        if request.graph.n_edges() >= 2 {
            for (label, text) in variants(&request) {
                out.push(case(format!("{name} {label}"), text));
            }
        }
    }
    for (label, text) in odd_documents() {
        out.push(case(label.to_string(), text));
    }
    out
}
