//! The JSON decoder never panics: arbitrary bytes, and truncated or
//! bit-flipped copies of real protocol lines, telemetry lines and a
//! results document, either decode or return an error — through the
//! generic parser and through every typed decoder built on it. A
//! field retyped to any other JSON value either still decodes or is
//! an error that names that field.

use kdag::prop::{self, Strategy};
use kdag::rng::StdRng;
use kserve::{Event, Request, Response};
use ktelemetry::json::{self, Value};

/// Run every JSON decoder in the workspace over `text`.
fn decode_everything(text: &str) {
    let _ = json::parse(text);
    let _ = Request::decode(text);
    let _ = Response::decode(text);
    let _ = Event::decode(text);
    let _ = json::from_json(text);
    let _ = json::parse_jsonl(text);
    let _ = kserve::SessionTrace::decode(text);
}

/// A submit request, its reply, a completion event, three telemetry
/// lines and a committed results document.
const SAMPLES: [&str; 7] = [
    r#"{"cmd":"submit","jobs":[{"k":2,"categories":[0,0,0,1,1],"edges":[[0,3],[0,4],[1,3],[1,4],[2,3],[2,4]]}],"watch":true,"session":"tenant-a"}"#,
    r#"{"reply":"submitted","jobs":[0,1],"trace_ids":["a1b2-0","a1b2-1"]}"#,
    r#"{"event":"job_done","job":5,"release":10,"completion":31,"response":21,"trace_id":"f00-5"}"#,
    r#"{"event":"run_start","scheduler":"k-rad \"q\" ü","jobs":12,"categories":2}"#,
    r#"{"event":"step_end","t":4,"allotted":[4,0,2],"executed":[3,0,2]}"#,
    r#"{"event":"decision","t":4,"category":1,"mode":"deq","jobs":3,"desire":16,"allotted":8,"satisfied":1,"deprived":2}"#,
    include_str!("../results/T12.json"),
];

#[test]
fn samples_decode() {
    Request::decode(SAMPLES[0]).unwrap();
    Response::decode(SAMPLES[1]).unwrap();
    assert!(Event::decode(SAMPLES[2]).unwrap().is_some());
    for line in &SAMPLES[3..6] {
        json::from_json(line).unwrap();
    }
    assert_eq!(json::parse(SAMPLES[6]).unwrap()["id"].as_str(), Some("T12"));
}

#[test]
fn arbitrary_bytes_never_panic() {
    // Half the cases draw raw bytes, half draw from JSON's own tokens,
    // which reach deeper into the grammar.
    let tokens: Vec<&str> =
        r#"{ } [ ] , : " \ \u 00e9 - 0 7 1.5 e E + true false null "k" "cmd" "submit" "event" ü"#
            .split(' ')
            .chain([" "])
            .collect();
    prop::check(
        512,
        |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                String::from_utf8_lossy(&prop::vec(0u8..=255, 0..256).draw(rng)).into_owned()
            } else {
                let token = |rng: &mut StdRng| tokens[rng.gen_range(0..tokens.len())];
                prop::vec(token, 0..64).draw(rng).concat()
            }
        },
        |text| decode_everything(text),
    );
}

#[test]
fn truncated_and_bit_flipped_documents_never_panic() {
    prop::check(
        512,
        |rng: &mut StdRng| {
            let doc = SAMPLES[rng.gen_range(0..SAMPLES.len())].as_bytes();
            let mut bytes = doc[..rng.gen_range(0..=doc.len())].to_vec();
            let flips = rng.gen_range(0..4usize);
            for _ in 0..flips {
                if !bytes.is_empty() {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        },
        |text| decode_everything(text),
    );
}

/// The decoder that owns a line, by its tag.
type Decoder = fn(&str) -> Result<(), String>;

fn request(line: &str) -> Result<(), String> {
    Request::decode(line).map(drop)
}

fn reply(line: &str) -> Result<(), String> {
    Response::decode(line).map(drop)
}

fn telemetry(line: &str) -> Result<(), String> {
    json::from_json(line).map(drop)
}

/// Lines of every record shape the codec declares: nested records,
/// flattened records, options, label enums and narrow integers.
const RECORDS: [(&str, Decoder); 6] = [
    (
        r#"{"cmd":"open","session":"b","scheduler":"equi","quantum":4,"rate_per_sec":250.5,"burst":64}"#,
        request,
    ),
    (
        r#"{"cmd":"submit","scenario":{"name":"pipeline","jobs":8,"seed":3},"watch":true}"#,
        request,
    ),
    (
        r#"{"reply":"status","now":12,"queued":1,"active":2,"draining":true,"jobs":[{"job":0,"state":"done","release":0,"completion":9}]}"#,
        reply,
    ),
    (
        r#"{"reply":"closed","session":"a","admitted":1,"completed":1,"cancelled":0,"rejected":2,"trace":{"machine":[2,1],"scheduler":"k-rad","policy":"fifo","quantum":2,"seed":7,"jobs":[{"release":0,"dag":{"k":1,"categories":[0],"edges":[]}}],"completions":[1]}}"#,
        reply,
    ),
    (
        r#"{"reply":"hello","version":5,"scheduler":"k-rad","time_policy":"event","quantum":4,"now":17,"durability":"off"}"#,
        reply,
    ),
    (
        r#"{"event":"mode_transition","t":5,"category":0,"from":"deq","to":"rr","active_jobs":9}"#,
        telemetry,
    ),
];

#[test]
fn retyped_fields_never_panic_and_name_the_field() {
    let values = [
        "null",
        "true",
        "false",
        "0",
        "7",
        "-1",
        "2.5",
        "1e300",
        "4294967296",
        "70000",
        r#""""#,
        r#""5""#,
        r#""deq""#,
        "[]",
        "[1,\"x\"]",
        "{}",
        r#"{"k":1}"#,
    ];
    prop::check(
        512,
        |rng: &mut StdRng| {
            let record = rng.gen_range(0..RECORDS.len());
            let Value::Obj(mut fields) = json::parse(RECORDS[record].0).unwrap() else {
                unreachable!("every record line is an object");
            };
            let at = rng.gen_range(0..fields.len());
            fields[at].1 = json::parse(values[rng.gen_range(0..values.len())]).unwrap();
            (
                record,
                fields[at].0.clone(),
                Value::Obj(fields).to_compact(),
            )
        },
        |(record, key, text)| {
            decode_everything(text);
            // The line's own decoder either accepts the new value or
            // says which field it refused.
            if let Err(err) = RECORDS[*record].1(text) {
                assert!(err.contains(key.as_str()), "{text}: {err}");
            }
        },
    );
}
