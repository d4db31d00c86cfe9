//! Format-level tests of the netlist description language: the canonical
//! round-trip property (`parse(print(s)) == s`) and a line-numbered error
//! for every malformed-directive class the parser knows.

use proptest::prelude::*;
use wp_spec::{
    lower, synthetic_registry, BlockSpec, ChannelDecl, Endpoint, NetlistSpec, SpecError,
    MAX_RELAY_STATIONS,
};

/// A minimal valid two-block loop (8 lines): every port used exactly once,
/// so appending one bad directive makes it line 9.
const LOOP: &str = "\
block a kind=fan
port a in i
port a out o
block b kind=fan
port b in i
port b out o
channel ab from=a.o to=b.i
channel ba from=b.o to=a.i
";

/// Parses and unwraps the expected [`SpecError::Parse`].
fn parse_err(text: &str) -> (usize, String) {
    match NetlistSpec::parse(text) {
        Err(SpecError::Parse { line, message }) => (line, message),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn every_malformed_directive_class_names_its_line() {
    // (appended directive, expected message fragment); each lands on
    // line 9, right after the valid LOOP prefix.
    let cases: &[(&str, &str)] = &[
        // Directive dispatch and tokenization.
        ("wire x", "unknown directive 'wire'"),
        ("block c kind=\"fan", "unterminated '\"' quote"),
        // block
        ("block", "expected 'block <name> kind=<kind> ...'"),
        (
            "block a.b kind=fan",
            "block name 'a.b' may not contain '.' or '='",
        ),
        ("block a kind=fan", "duplicate block name 'a'"),
        ("block c fan", "expected key=value, got 'fan'"),
        ("block c kind=fan kind=fan", "duplicate key 'kind'"),
        ("block c note=1", "block 'c' is missing kind=<kind>"),
        // port
        ("port a in", "expected 'port <block> in|out <name>'"),
        (
            "port a in i2 extra",
            "expected 'port <block> in|out <name>'",
        ),
        (
            "port a in x.y",
            "port name 'x.y' may not contain '.' or '='",
        ),
        (
            "port a inout x",
            "port direction 'inout'; expected in or out",
        ),
        ("port z in x", "port on undeclared block 'z'"),
        ("port a in i", "duplicate input port 'i' on block 'a'"),
        ("port a out o", "duplicate output port 'o' on block 'a'"),
        // channel
        ("channel", "expected 'channel <name> from=... to=...'"),
        (
            "channel a=b from=a.o to=b.i",
            "channel name 'a=b' may not contain",
        ),
        ("channel ab from=a.o to=b.i", "duplicate channel name 'ab'"),
        ("channel x from=a.o from=a.o to=b.i", "duplicate key 'from'"),
        (
            "channel x to=b.i",
            "channel 'x' is missing from=<block>.<port>",
        ),
        (
            "channel x from=a.o",
            "channel 'x' is missing to=<block>.<port>",
        ),
        (
            "channel x from=ao to=b.i",
            "endpoint 'ao' is not <block>.<port>",
        ),
        (
            "channel x from=.o to=b.i",
            "endpoint '.o' is not <block>.<port>",
        ),
        (
            "channel x from=a.o to=b.i relay=-1",
            "channel 'x' has relay '-1'; expected a non-negative integer",
        ),
        (
            "channel x from=a.o to=b.i latency=fast",
            "channel 'x' has latency 'fast'; expected a non-negative integer",
        ),
        // Relay counts are bounded (wp_spec::MAX_RELAY_STATIONS = 4096): a
        // four-billion-station channel used to abort the process on
        // allocation once a simulator was built from it.
        (
            "channel x from=a.o to=b.i relay=4000000000",
            "channel 'x' has relay '4000000000'; at most 4096 relay stations per channel",
        ),
        (
            "channel x from=a.o to=b.i latency=4000000000",
            "channel 'x' has latency '4000000000'; at most 4097 clock periods",
        ),
        (
            "channel x from=a.o to=b.i color=red",
            "unknown key 'color' for channel 'x'",
        ),
        // Eager endpoint resolution names the channel line, not line 0.
        (
            "channel x from=z.o to=b.i",
            "channel 'x': endpoint 'z.o' references unknown block",
        ),
        (
            "channel x from=a.nope to=b.i",
            "channel 'x': block 'a' has no output port 'nope'",
        ),
        (
            "channel x from=a.i to=b.i",
            "channel 'x': block 'a' has no output port 'i'",
        ),
        // relay / latency overrides
        ("relay ab", "expected 'relay <channel> <count>'"),
        ("relay zz 1", "undeclared channel 'zz'"),
        (
            "relay ab many",
            "relay count 'many'; expected a non-negative integer",
        ),
        (
            "relay ab 4097",
            "relay count '4097'; at most 4096 relay stations",
        ),
        ("latency ab 1 2", "expected 'latency <channel> <periods>'"),
        ("latency zz 1", "undeclared channel 'zz'"),
        (
            "latency ab soon",
            "latency 'soon'; expected a non-negative integer",
        ),
        (
            "latency ab 4098",
            "latency '4098'; at most 4097 clock periods",
        ),
        // budget
        ("budget", "expected 'budget <total>'"),
        ("budget 1 2", "expected 'budget <total>'"),
        (
            "budget nine",
            "budget 'nine'; expected a non-negative integer",
        ),
    ];
    for (bad, fragment) in cases {
        let (line, message) = parse_err(&format!("{LOOP}{bad}\n"));
        assert_eq!(line, 9, "directive {bad:?} reported line {line}: {message}");
        assert!(
            message.contains(fragment),
            "directive {bad:?}: message {message:?} does not contain {fragment:?}"
        );
    }
}

/// The relay bound is inclusive, and relays that `insert_relays` derives
/// from a latency at a shorter clock are rejected at lowering instead of
/// reaching a simulator's allocation.  (Counts above the bound in the text
/// are malformed-directive cases above.)
#[test]
fn relay_bound_holds_after_latency_insertion() {
    let max = MAX_RELAY_STATIONS;
    let at_bound = format!(
        "block a kind=fan\nport a in i\nport a out o\nchannel c from=a.o to=a.i relay={max}\n\
         block b kind=fan\nport b in i\nport b out o\nchannel d from=b.o to=b.i latency={}\n",
        max + 1
    );
    let mut spec = NetlistSpec::parse(&at_bound).expect("the bound parses");
    spec.insert_relays(1.0);
    assert_eq!(spec.relay_assignment(), vec![max, max]);
    assert!(lower(&spec, &synthetic_registry()).is_ok());

    let mut spec = NetlistSpec::parse(&at_bound).expect("the bound parses");
    spec.insert_relays(0.5);
    match lower(&spec, &synthetic_registry()) {
        Err(SpecError::Build { message }) => assert!(
            message.contains(&format!(
                "channel 'd' has {} relay stations; at most {max} per channel",
                2 * max + 1
            )),
            "{message}"
        ),
        other => panic!("expected a build error, got {other:?}"),
    }
}

#[test]
fn duplicate_budget_names_the_second_directive() {
    let (line, message) = parse_err(&format!("{LOOP}budget 1\nbudget 2\n"));
    assert_eq!(line, 10);
    assert!(message.contains("duplicate budget directive"), "{message}");
}

#[test]
fn line_numbers_count_comments_and_blank_lines() {
    let text = "# header\n\nblock a kind=fan\nport a in i\n\nwire oops\n";
    let (line, message) = parse_err(text);
    assert_eq!(line, 6, "{message}");
}

#[test]
fn whole_spec_violations_report_line_zero() {
    let cases: &[(String, &str)] = &[
        (String::new(), "the spec declares no blocks"),
        (
            "# only comments\n".to_string(),
            "the spec declares no blocks",
        ),
        (
            format!("{LOOP}port a in spare\n"),
            "input port 'a.spare' is fed by 0 channels (expected 1)",
        ),
        (
            format!("{LOOP}port b in i2\nchannel x from=a.o to=b.i2\n"),
            "output port 'a.o' drives 2 channels (expected 1)",
        ),
        (
            format!("{}budget 1\n", LOOP.replace("to=b.i\n", "to=b.i relay=2\n")),
            "total relay stations 2 exceed budget 1",
        ),
    ];
    for (text, fragment) in cases {
        let (line, message) = parse_err(text);
        assert_eq!(line, 0, "{message}");
        assert!(message.contains(fragment), "{message:?} vs {fragment:?}");
    }
}

#[test]
fn quoted_attributes_and_inline_knobs_round_trip() {
    let text = "block a kind=fan note=\"two words\" empty=\"\"\n\
                port a in i\nport a out o\n\
                channel aa from=a.o to=a.i relay=1 latency=3\n\
                budget 2\n";
    let spec = NetlistSpec::parse(text).expect("parses");
    let block = spec.find_block("a").expect("declared");
    assert_eq!(block.attr("note"), Some("two words"));
    assert_eq!(block.attr("empty"), Some(""));
    let channel = spec.find_channel("aa").expect("declared");
    assert_eq!((channel.relay_stations, channel.latency), (1, Some(3)));

    let printed = spec.print();
    let reparsed = NetlistSpec::parse(&printed).expect("canonical text parses");
    assert_eq!(spec, reparsed);
    assert_eq!(printed, reparsed.print(), "printing is a fixed point");
}

#[test]
fn standalone_overrides_normalize_into_channel_lines() {
    let text = format!("{LOOP}relay ab 2\nlatency ba 5\nbudget 2\n");
    let spec = NetlistSpec::parse(&text).expect("parses");
    assert_eq!(spec.find_channel("ab").expect("declared").relay_stations, 2);
    assert_eq!(spec.find_channel("ba").expect("declared").latency, Some(5));

    let printed = spec.print();
    assert!(
        printed.contains("channel ab from=a.o to=b.i relay=2"),
        "{printed}"
    );
    assert!(
        printed.contains("channel ba from=b.o to=a.i latency=5"),
        "{printed}"
    );
    assert_eq!(NetlistSpec::parse(&printed).expect("parses"), spec);
}

/// A ring of `n` one-in/one-out blocks: always checks, so it can carry
/// arbitrary attribute lists, relay counts, latencies and budgets into the
/// round-trip property.
fn ring_spec(
    n: usize,
    attrs: &[(String, String)],
    relays: &[usize],
    latencies: &[Option<u64>],
    budget_slack: Option<usize>,
) -> NetlistSpec {
    let mut spec = NetlistSpec {
        blocks: (0..n)
            .map(|b| BlockSpec {
                name: format!("b{b}"),
                kind: "fan".to_string(),
                attrs: attrs.to_vec(),
                inputs: vec!["prev".to_string()],
                outputs: vec!["next".to_string()],
            })
            .collect(),
        channels: (0..n)
            .map(|b| ChannelDecl {
                name: format!("c{b}"),
                from: Endpoint {
                    block: format!("b{b}"),
                    port: "next".to_string(),
                },
                to: Endpoint {
                    block: format!("b{}", (b + 1) % n),
                    port: "prev".to_string(),
                },
                relay_stations: relays[b],
                latency: latencies[b],
            })
            .collect(),
        budget: None,
    };
    spec.budget = budget_slack.map(|slack| spec.total_relay_stations() + slack);
    spec
}

// The round-trip property on the parser's own turf: arbitrary valid specs
// — including attribute values that need quoting (spaces, empty) — print
// to text that re-parses to an identical spec, and printing is stable.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn arbitrary_specs_round_trip_through_the_canonical_printer(
        n in 1usize..6,
        raw_attrs in prop::collection::vec(("[a-z]{1,5}", "[a-z 0-9]{0,7}"), 0usize..4),
        relays in prop::collection::vec(0usize..4, 6usize),
        latency_draws in prop::collection::vec(0u64..6, 6usize),
        budget_slack in prop::option::of(0usize..8),
    ) {
        // Attribute keys must be unique and must not shadow `kind`.
        let mut attrs: Vec<(String, String)> = Vec::new();
        for (key, value) in raw_attrs {
            if key != "kind" && attrs.iter().all(|(k, _)| *k != key) {
                attrs.push((key, value));
            }
        }
        let latencies: Vec<Option<u64>> =
            latency_draws.iter().map(|&l| (l > 0).then_some(l)).collect();
        let spec = ring_spec(n, &attrs, &relays, &latencies, budget_slack);
        prop_assert!(spec.check().is_ok());

        let printed = spec.print();
        let reparsed = NetlistSpec::parse(&printed).expect("canonical text parses");
        prop_assert_eq!(&spec, &reparsed);
        prop_assert_eq!(printed, reparsed.print());
    }
}
