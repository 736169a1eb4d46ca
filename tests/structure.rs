//! The repository's structural rules, in one table: what must not come
//! back, what is defined in one place only, and why.
//!
//! Each [`Rule`] names a pattern, the paths it searches, the paths it
//! skips, the part of each file it reads and the count it expects. A
//! pattern is an extended regular expression as `grep -E` reads it,
//! matched by the small backtracking matcher at the end of this file:
//! literals, `.`, `[...]` / `[^...]` classes with ranges, groups with
//! `|`, the quantifiers `?`, `*` and `+`, the anchors `^` and `$`, and
//! `\b` for a word boundary. A scope entry is a path from the repository
//! root, where `*` stands for part of one path segment; a directory is
//! searched recursively, every file in it. This file is left out of
//! every scan: it spells out every pattern it forbids.
//!
//! A failure names each broken rule, its reason and the offending lines.
//! New dead code needs no rule: clippy `-D warnings` over `--all-targets`
//! fails on `dead_code`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The code under the `src` and `tests` directories and the examples.
const CODE: &[&str] = &["crates", "src", "tests", "examples"];

/// The production crates' sources.
const CRATE_SRC: &[&str] = &["crates/*/src"];

/// The production crates' sources plus the root package's code.
const SOURCES: &[&str] = &["crates/*/src", "src", "tests", "examples"];

struct Rule {
    name: &'static str,
    /// Why the rule holds.
    reason: &'static str,
    pattern: &'static str,
    scope: &'static [&'static str],
    /// Files the scan skips: a path from the root, or a file name.
    except: &'static [&'static str],
    part: Part,
    expect: Expect,
}

/// What part of a file a rule reads.
#[derive(Clone, Copy)]
enum Part {
    /// Every line.
    Lines,
    /// Every line without `//`: code, not comments.
    CodeLines,
    /// Every line before the file's unit tests ([`production`]).
    Production,
    /// The whole file as one text, so a match may span lines.
    File,
}

/// What a rule expects to find.
#[derive(Clone, Copy)]
enum Expect {
    /// Nothing matches.
    Absent,
    /// Exactly this many lines match.
    Lines(usize),
    /// Exactly one file matches: this one.
    OnlyIn(&'static str),
}

const fn absent(
    name: &'static str,
    reason: &'static str,
    pattern: &'static str,
    scope: &'static [&'static str],
) -> Rule {
    Rule {
        name,
        reason,
        pattern,
        scope,
        except: &[],
        part: Part::Lines,
        expect: Expect::Absent,
    }
}

const RULES: &[Rule] = &[
    absent(
        "one-device-table",
        "the world stores devices one way; no enum-dispatch fork and no switch to select one",
        "DeviceStore|GenericWorld|DeviceKind|DispatchMode|netco_fastpath|netco-fastpath",
        &["Cargo.toml", "crates", "src", "tests", "examples"],
    ),
    absent(
        "one-instrument",
        "no CPU-bypass or full-copy-vote knob, no second or third measurement instrument",
        "set_cpu_bypass|bypass_enabled|vote_full_copies|with_full_copy_votes|perf_report|criterion",
        &["Cargo.toml", "crates/*/Cargo.toml", "crates/*/src", "src", "tests", "examples"],
    ),
    absent(
        "no-public-oracle",
        "a test oracle is not part of any public API",
        "pub (mod|use) .*baseline",
        CRATE_SRC,
    ),
    absent(
        "one-form-per-measurement",
        "one pooled fold per figure, no serial copies, timing envelope, copying batch drain \
         or caller-less combiner presets",
        r"flow_smoke|map_timed|(row|trial|rate)_counted\(|pop_batch|CombinerConfig|ComparePlacement|struct Sweep",
        SOURCES,
    ),
    absent(
        "one-cell-one-routed-switch",
        "`netco_topo::cell` and `routed_switch` are the only NetCo cell and MAC-routed switch",
        "wire_replicas|fn mac_rules|fn of_switch|fn router_rules|fn used_ports|fn port_wired|with_fault_seed",
        SOURCES,
    ),
    Rule {
        except: &["graph.rs"],
        ..absent(
            "link-ends-move-through-rewire-far",
            "a write to a link end goes through its port table (`rewire_far`)",
            r"links\[[a-z_]*\]\.b(_port)? *=",
            &["crates/topogen/src"],
        )
    },
    absent(
        "one-compare-host",
        "`CompareHost` replaced the unrepresentable `GuardConfig` states and POX's lane \
         from a truncated node index (`embedded_compare_stats` stays)",
        r"primary_forward|embedded_compare([^_]|$)|guard\.index\(\) as u16|fn guard_of",
        CODE,
    ),
    Rule {
        part: Part::CodeLines,
        expect: Expect::Lines(1),
        ..absent(
            "one-sweep-cadence",
            "`CompareConfig::sweep_interval` is the one statement of the sweep cadence",
            "hold_time / 4",
            CRATE_SRC,
        )
    },
    Rule {
        except: &["crates/core/src/events.rs", "crates/core/src/compare/host.rs"],
        ..absent(
            "one-security-event-tracer",
            "only the compare host traces security events",
            "trace_security_event",
            CODE,
        )
    },
    absent(
        "one-mix64",
        "no private copy of `netco_sim::mix64`",
        "fn splitmix",
        &[
            "crates/net",
            "crates/core",
            "crates/traffic",
            "crates/topogen",
            "crates/bench",
        ],
    ),
    Rule {
        expect: Expect::Lines(1),
        ..absent(
            "one-encapsulated-memo-link",
            "the link from an encapsulating frame to its inner frame's memo is made in \
             `Frame::encapsulating` only",
            r"Repr::Encapsulated\(Arc::new",
            &["crates/net/src/frame.rs"],
        )
    },
    absent(
        "no-copying-wrap",
        "a compare-link wrap shares the inner frame instead of copying encoded bytes",
        r"encapsulating\(of_wrap|Frame::encapsulating\(Bytes",
        CRATE_SRC,
    ),
    absent(
        "taps-fold-the-memo",
        "a tap folds `Frame::fnv1a()`, not a re-hash of the frame's bytes",
        r"fnv1a\((ev|e)\.frame\)",
        CRATE_SRC,
    ),
    absent(
        "taps-record-the-frame",
        "`run_taps` records the frame, not a copy of its bytes",
        r"bytes\(\).clone\(\)",
        &["crates/net/src/substrate.rs"],
    ),
    Rule {
        except: &["crates/net/src/frame.rs"],
        ..absent(
            "one-memo-writer",
            "no file but `frame.rs` names the frame memo",
            r"\bMemo\b",
            &["crates/*/src", "src", "examples", "benchmark/src"],
        )
    },
    absent(
        "one-event-loop",
        "one CPU admission path and one event loop; no bypass fork, stepping or keyed pop",
        r"cpu_bypass|bypassed\(|recompute_bypass|run_until_per_event|fn step\(|pop_keyed|fn flush_taps",
        SOURCES,
    ),
    Rule {
        part: Part::CodeLines,
        expect: Expect::Lines(1),
        ..absent(
            "one-tick-loop",
            "`WorldCore::run_ticks` is the world's one caller of `pop_tick_until`",
            r"pop_tick_until\(",
            &["crates/net/src"],
        )
    },
    absent(
        "one-topology-stack",
        "the fat-tree world, §VII's included, is a `TopoGraph` lowered in `build.rs`",
        r"PathGraph|FatTreeOptions|ExtraRules|struct FatTree\b",
        SOURCES,
    ),
    Rule {
        expect: Expect::OnlyIn("crates/topogen/src/build.rs"),
        ..absent(
            "one-world-builder-in-topogen",
            "`build.rs` is the only place in netco-topogen that creates a `World`",
            r"World::new\(",
            &["crates/topogen/src"],
        )
    },
    absent(
        "one-decoder-per-format",
        "each codec has one decoder, and hosts read frames through `HostNic::receive`",
        "decode_inner|parse_shared|deliver_shared|of_unwrap_shared|fn handle_arp|ethertype_is_arp|fn peek_(dst|src)|collided",
        CODE,
    ),
    Rule {
        expect: Expect::OnlyIn("crates/openflow/src/wire.rs"),
        ..absent(
            "one-openflow-decoder",
            "the OpenFlow codec's one decoder is `wire::decode_shared`",
            "fn decode_shared",
            CODE,
        )
    },
    Rule {
        part: Part::Production,
        ..absent(
            "codecs-slice-not-copy",
            "a decoder slices its payload out of the frame instead of copying it",
            "Bytes::copy_from_slice",
            &["crates/net/src/packet/*.rs", "crates/openflow/src/wire.rs"],
        )
    },
    absent(
        "no-world-core-deref",
        "callers reach the substrate as `core.sub`, not through a deref",
        r"impl (std::ops::)?Deref(Mut)? for WorldCore",
        &["crates/net/src"],
    ),
    absent(
        "a-shard-is-a-world-core",
        "a region shard is a `WorldCore`, not a wrapper around one",
        "struct RegionRunner",
        &["crates/net/src"],
    ),
    Rule {
        expect: Expect::OnlyIn("crates/net/src/substrate.rs"),
        ..absent(
            "one-substrate-builder",
            "only `substrate.rs` builds or destructures a `Substrate`",
            r"\bSubstrate \{",
            &["crates/net/src"],
        )
    },
    absent(
        "private-partition",
        "the region partition stays private to netco-net",
        "RegionMap",
        &["crates/net/src/lib.rs"],
    ),
    absent(
        "one-fault-model",
        "a link outage is a window judged at transmit, and links and control channels \
         share one fault type",
        r"LinkAdmin|key_link_admin|set_link_enabled|schedule_link_state|fn owns\b|struct (LinkFault|ControlFault)\b",
        &["crates/net/src"],
    ),
    Rule {
        except: &["fault.rs"],
        expect: Expect::Lines(1),
        ..absent(
            "one-flap-expansion",
            "a flap schedule is expanded into its windows in one place (`Impairments::push`)",
            r"FaultKind::Flaps \{",
            &["crates/net/src"],
        )
    },
    absent(
        "one-graph-walk",
        "`graph::bfs` is netco-topogen's one breadth-first walk",
        "VecDeque",
        &["crates/topogen/src"],
    ),
    absent(
        "ports-from-the-graph",
        "the fat-tree's ports and hosts are read from the `TopoGraph`",
        "ports_between|fn host_port|pub use fattree",
        &["crates/topogen/src"],
    ),
    absent(
        "what-no-paper-world-runs",
        "no learning or static-routing app, controller liveness, unimplemented app hook, \
         switch port block or one-value option",
        "LearningSwitchApp|StaticRoutingApp|RuleSpec|with_liveness|LIVENESS_TIMER|on_switch_down|on_flow_removed|block_port|SwitchConfig|with_mss|dos_repeat_threshold|miss_send_len",
        CODE,
    ),
    Rule {
        part: Part::File,
        ..absent(
            "control-channels-carry-frames",
            "a control channel carries a `Frame` like a link; no `on_control` takes `Bytes`",
            r"fn on_control\([^)]*\bBytes\b",
            CODE,
        )
    },
    Rule {
        except: &["crates/openflow/src/wire.rs"],
        part: Part::Production,
        ..absent(
            "one-openflow-transport",
            "every packet-in and packet-out outside the codec is a frame wrap from `wire.rs`",
            r"wire::encode\(&OfMessage::PacketIn|OfMessage::PacketIn \{|OfMessage::packet_out\(",
            CRATE_SRC,
        )
    },
    Rule {
        expect: Expect::OnlyIn("crates/openflow/src/wire.rs"),
        ..absent(
            "wraps-defined-in-wire",
            "the frame wraps and their one reader are defined in `wire.rs` only",
            r"fn (packet_in_frame|packet_out_frame|read_frame)\b",
            CODE,
        )
    },
    Rule {
        part: Part::Production,
        ..absent(
            "read-through-read-frame",
            "the guard, the compare and the controller read OpenFlow through `read_frame`",
            "decode_shared|of_unwrap|unwrap_split|decode_split",
            &[
                "crates/core/src/guard.rs",
                "crates/core/src/compare/device.rs",
                "crates/controller/src/controller.rs",
            ],
        )
    },
    absent(
        "no-vote-side-table",
        "the voter's compare cache keeps the one canonical frame it releases",
        "vote_key|retained_bytes",
        CRATE_SRC,
    ),
    absent(
        "vote-on-the-frame",
        "the voter hands `canonicalize` the controller's frame, not its flattened bytes",
        r"canonicalize\(.*\.bytes\(\)",
        &["crates/core/src/voter.rs"],
    ),
    absent(
        "openflow-some-world-sends",
        "no echo, barrier, error or flow-removed message, flow-removed flag, L3/L4 \
         rewrite action or CONTROLLER port",
        r"OfMessage::(EchoRequest|BarrierRequest|Error)\b|FlowRemoved|SetNwSrc|SetTpSrc|OfPort::Controller|with_notify",
        CODE,
    ),
    absent(
        "one-seed",
        "`Scenario::build`'s seed is the only one; `Profile` has none",
        r"profile\.seed",
        CODE,
    ),
    absent(
        "no-per-frame-link-event",
        "a frame's end of serialisation is not an event",
        "LinkTxDone",
        CRATE_SRC,
    ),
    absent(
        "one-rendezvous",
        "the region round loop meets through its own rendezvous only",
        "Barrier",
        &["crates/net/src"],
    ),
    absent(
        "compare-events-go-to-the-host",
        "the core raises security events into its own buffer; no placement receives one \
         as an action",
        "CompareAction::Event",
        CODE,
    ),
    absent(
        "one-packet-in-reason",
        "the only packet-in a device sends is a table miss, and no receiver reads the reason",
        "PacketInReason::Action",
        CODE,
    ),
    absent(
        "the-guard-is-the-hub",
        "`GuardSwitch` is the trusted hub; no second duplicator device",
        r"struct Hub\b",
        CRATE_SRC,
    ),
    absent(
        "one-cleanup-cost",
        "the cleanup cost per evicted entry is the constant `CLEANUP_COST_PER_ENTRY`",
        "cleanup_cost_per_entry",
        CODE,
    ),
    absent(
        "fp128-lives-in-netco-net",
        "`fp128` is netco-net's, not re-exported by netco-core",
        "pub use netco_net::frame::fp128",
        CRATE_SRC,
    ),
];

#[test]
fn structural_rules_hold() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Files::default();
    let failures: Vec<String> = RULES
        .iter()
        .filter_map(|rule| check(rule, root, &mut files).err())
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} structural rules broke:\n\n{}",
        failures.len(),
        RULES.len(),
        failures.join("\n\n")
    );
}

/// One match: the file and, for a line match, its 1-based line number.
struct Hit {
    path: String,
    line: Option<(usize, String)>,
}

/// Runs `rule`; the error names it and lists what it found.
fn check(rule: &Rule, root: &Path, files: &mut Files) -> Result<(), String> {
    let pattern = parse(rule.pattern);
    let mut hits = Vec::new();
    for path in scope_files(root, rule) {
        let text = files.read(root, &path);
        let mut scan = |lines: &[&str]| {
            for (i, line) in lines.iter().enumerate() {
                if !(matches!(rule.part, Part::CodeLines) && line.contains("//"))
                    && find(&pattern, line)
                {
                    hits.push(Hit {
                        path: path.clone(),
                        line: Some((i + 1, line.to_string())),
                    });
                }
            }
        };
        match rule.part {
            Part::Lines | Part::CodeLines => scan(&text.lines().collect::<Vec<_>>()),
            Part::Production => scan(&production(text)),
            Part::File => {
                if find(&pattern, text) {
                    hits.push(Hit {
                        path: path.clone(),
                        line: None,
                    });
                }
            }
        }
    }
    let (holds, expected) = match rule.expect {
        Expect::Absent => (hits.is_empty(), "no match".to_string()),
        Expect::Lines(n) => (hits.len() == n, format!("exactly {n} matching line(s)")),
        Expect::OnlyIn(file) => {
            let mut matched: Vec<&str> = hits.iter().map(|h| h.path.as_str()).collect();
            matched.dedup();
            (matched == [file], format!("matches in {file} only"))
        }
    };
    if holds {
        return Ok(());
    }
    let mut report = format!(
        "rule `{}` broke — {}\n  pattern /{}/ in {:?}: expected {expected}, found {}:",
        rule.name,
        rule.reason,
        rule.pattern,
        rule.scope,
        hits.len()
    );
    for hit in &hits {
        match &hit.line {
            Some((n, line)) => report.push_str(&format!("\n    {}:{n}: {}", hit.path, line.trim())),
            None => report.push_str(&format!("\n    {}", hit.path)),
        }
    }
    Err(report)
}

/// A file's lines before its unit tests: everything above the
/// `#[cfg(test)]` line that a top-level `mod tests` follows (the whole
/// file when it has none).
fn production(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    let end = lines
        .windows(2)
        .position(|w| w[0].starts_with("#[cfg(test)]") && w[1].starts_with("mod tests"))
        .unwrap_or(lines.len());
    lines.truncate(end);
    lines
}

/// Every file in `rule`'s scope, as paths from the root in sorted order,
/// without its exceptions and without this file.
fn scope_files(root: &Path, rule: &Rule) -> Vec<String> {
    let mut out = Vec::new();
    for entry in rule.scope {
        for path in expand(root, entry) {
            walk(root, &path, &mut out);
        }
    }
    out.sort();
    out.dedup();
    out.retain(|path| {
        path != "tests/structure.rs"
            && !rule
                .except
                .iter()
                .any(|e| path == e || path.ends_with(&format!("/{e}")))
    });
    out
}

/// The paths `entry` names, `*` matching part of one segment.
fn expand(root: &Path, entry: &str) -> Vec<PathBuf> {
    let mut paths = vec![PathBuf::new()];
    for segment in entry.split('/') {
        let mut next = Vec::new();
        for dir in &paths {
            match segment.split_once('*') {
                None => next.push(dir.join(segment)),
                Some((prefix, suffix)) => {
                    let Ok(read) = fs::read_dir(root.join(dir)) else {
                        continue;
                    };
                    for item in read.flatten() {
                        let name = item.file_name().to_string_lossy().into_owned();
                        if name.starts_with(prefix) && name.ends_with(suffix) {
                            next.push(dir.join(name));
                        }
                    }
                }
            }
        }
        paths = next;
    }
    paths.retain(|p| root.join(p).exists());
    paths
}

/// Adds `path` (from the root) if it is a file, or every file under it.
fn walk(root: &Path, path: &Path, out: &mut Vec<String>) {
    let full = root.join(path);
    if full.is_dir() {
        for item in fs::read_dir(&full).into_iter().flatten().flatten() {
            walk(root, &path.join(item.file_name()), out);
        }
    } else if full.is_file() {
        out.push(path.to_string_lossy().replace('\\', "/"));
    }
}

/// File contents, read once per test run.
#[derive(Default)]
struct Files(BTreeMap<String, String>);

impl Files {
    fn read(&mut self, root: &Path, path: &str) -> &str {
        self.0.entry(path.to_string()).or_insert_with(|| {
            let bytes = fs::read(root.join(path)).unwrap_or_default();
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }
}

// ---- The pattern matcher -------------------------------------------------

/// One element of a parsed pattern.
#[derive(Debug)]
enum Node {
    Char(char),
    /// `.`: any character but a newline.
    Any,
    Class {
        ranges: Vec<(char, char)>,
        negated: bool,
    },
    Start,
    End,
    WordBoundary,
    /// `( … | … )`: alternatives.
    Group(Vec<Vec<Node>>),
    Repeat {
        node: Box<Node>,
        min: usize,
        max: usize,
    },
}

/// Parses `pattern` into its top-level alternatives.
fn parse(pattern: &str) -> Vec<Vec<Node>> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pos = 0;
    let alternatives = parse_alternatives(&chars, &mut pos);
    assert_eq!(pos, chars.len(), "unbalanced `)` in /{pattern}/");
    alternatives
}

fn parse_alternatives(p: &[char], pos: &mut usize) -> Vec<Vec<Node>> {
    let mut alternatives = vec![Vec::new()];
    while let Some(&c) = p.get(*pos) {
        *pos += 1;
        let node = match c {
            '|' => {
                alternatives.push(Vec::new());
                continue;
            }
            ')' => {
                *pos -= 1;
                break;
            }
            '(' => {
                let inner = parse_alternatives(p, pos);
                assert_eq!(p.get(*pos), Some(&')'), "unclosed `(`");
                *pos += 1;
                Node::Group(inner)
            }
            '.' => Node::Any,
            '^' => Node::Start,
            '$' => Node::End,
            '[' => parse_class(p, pos),
            '\\' => {
                let escaped = p[*pos];
                *pos += 1;
                match escaped {
                    'b' => Node::WordBoundary,
                    other => Node::Char(other),
                }
            }
            '?' | '*' | '+' => {
                let sequence = alternatives.last_mut().expect("one alternative");
                let node = Box::new(sequence.pop().expect("a quantifier follows something"));
                let (min, max) = match c {
                    '?' => (0, 1),
                    '*' => (0, usize::MAX),
                    _ => (1, usize::MAX),
                };
                Node::Repeat { node, min, max }
            }
            literal => Node::Char(literal),
        };
        alternatives.last_mut().expect("one alternative").push(node);
    }
    alternatives
}

/// Parses a class after its `[`, through its `]`.
fn parse_class(p: &[char], pos: &mut usize) -> Node {
    let negated = p[*pos] == '^';
    if negated {
        *pos += 1;
    }
    let mut ranges = Vec::new();
    while p[*pos] != ']' {
        let lo = p[*pos];
        if p[*pos + 1] == '-' && p[*pos + 2] != ']' {
            ranges.push((lo, p[*pos + 2]));
            *pos += 3;
        } else {
            ranges.push((lo, lo));
            *pos += 1;
        }
    }
    *pos += 1;
    Node::Class { ranges, negated }
}

/// Whether `pattern` matches anywhere in `text`.
fn find(pattern: &[Vec<Node>], text: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    (0..=t.len()).any(|start| {
        pattern
            .iter()
            .any(|sequence| match_sequence(sequence, &t, start, &|_| true))
    })
}

/// Whether `sequence` matches at `i` with the rest (`k`) matching after it.
fn match_sequence(sequence: &[Node], t: &[char], i: usize, k: &dyn Fn(usize) -> bool) -> bool {
    match sequence.split_first() {
        None => k(i),
        Some((node, rest)) => match_node(node, t, i, &|j| match_sequence(rest, t, j, k)),
    }
}

fn match_node(node: &Node, t: &[char], i: usize, k: &dyn Fn(usize) -> bool) -> bool {
    let next = t.get(i).copied();
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    match node {
        Node::Char(c) => next == Some(*c) && k(i + 1),
        Node::Any => next.is_some_and(|c| c != '\n') && k(i + 1),
        Node::Class { ranges, negated } => {
            next.is_some_and(|c| ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&c)) != *negated)
                && k(i + 1)
        }
        Node::Start => i == 0 && k(i),
        Node::End => i == t.len() && k(i),
        Node::WordBoundary => {
            let before = i > 0 && is_word(t[i - 1]);
            before != next.is_some_and(is_word) && k(i)
        }
        Node::Group(alternatives) => alternatives
            .iter()
            .any(|sequence| match_sequence(sequence, t, i, k)),
        Node::Repeat { node, min, max } => repeat(node, *min, *max, t, i, k),
    }
}

/// Greedy repetition: as many `node`s as match, then fewer.
fn repeat(
    node: &Node,
    min: usize,
    max: usize,
    t: &[char],
    i: usize,
    k: &dyn Fn(usize) -> bool,
) -> bool {
    let more = max > 0
        && match_node(node, t, i, &|j| {
            j > i && repeat(node, min.saturating_sub(1), max - 1, t, j, k)
        });
    more || (min == 0 && k(i))
}

#[test]
fn the_matcher_reads_patterns_as_grep_e_does() {
    let cases: &[(&str, &str, bool)] = &[
        ("a|b", "xbx", true),
        (
            r"embedded_compare([^_]|$)",
            "self.embedded_compare_stats()",
            false,
        ),
        (
            r"embedded_compare([^_]|$)",
            "let x = embedded_compare",
            true,
        ),
        (r"embedded_compare([^_]|$)", "embedded_compare(x)", true),
        (
            r"links\[[a-z_]*\]\.b(_port)? *=",
            "links[idx].b_port = 3;",
            true,
        ),
        (r"links\[[a-z_]*\]\.b(_port)? *=", "links[idx].a = 3", false),
        (r"\bMemo\b", "MemoStats", false),
        (r"\bMemo\b", "use crate::Memo;", true),
        (
            r"fn (packet_in_frame|read_frame)\b",
            "pub fn read_frame<'a>(",
            true,
        ),
        (
            r"fn (packet_in_frame|read_frame)\b",
            "fn read_frames(",
            false,
        ),
        (
            r"pub (mod|use) .*baseline",
            "pub use x::baseline_run;",
            true,
        ),
        (
            r"fn on_control\([^)]*\bBytes\b",
            "fn on_control(\n  msg: Bytes,\n)",
            true,
        ),
        (
            r"fn on_control\([^)]*\bBytes\b",
            "fn on_control(m: Frame) -> Bytes",
            false,
        ),
        (r"^mod tests", "mod tests {", true),
        (r"^mod tests", " mod tests {", false),
        (r"bytes\(\).clone\(\)", "f.bytes().clone()", true),
        (r"a+b", "caab", true),
        (r"a+b", "cb", false),
    ];
    for &(pattern, text, expected) in cases {
        assert_eq!(
            find(&parse(pattern), text),
            expected,
            "/{pattern}/ on {text:?}"
        );
    }
}
