//! Byte-exact goldens for the wire encoder.
//!
//! Every reply, request and decision record leaves the daemon through
//! `Json::to_line`, so its output bytes are part of the protocol: these
//! goldens pin them for integers (zero, negatives, the 9e15
//! integral/fractional boundary), fractional floats, nulls, empty arrays
//! and escaped keys and strings.

use identd::json::{self, Json};
use identd::proto::{tx_to_json, DecisionRecord};
use proxylog::{
    AppTypeId, CategoryId, DeviceId, HttpAction, Reputation, SiteId, SubtypeId, Timestamp,
    Transaction, UriScheme, UserId,
};

#[test]
fn numbers_have_golden_bytes() {
    for (value, golden) in [
        (0.0, "0"),
        (-0.0, "0"),
        (7.0, "7"),
        (-7.0, "-7"),
        (10.0, "10"),
        (99.0, "99"),
        (100.0, "100"),
        (-1_234_567.0, "-1234567"),
        (1_433_000_000.0, "1433000000"),
        (4_294_967_295.0, "4294967295"),
        (8_999_999_999_999_999.0, "8999999999999999"),
        (-8_999_999_999_999_999.0, "-8999999999999999"),
        (9e15, "9000000000000000"),
        (-9e15, "-9000000000000000"),
        (9_000_000_000_000_001.0, "9000000000000001"),
        (1e20, "100000000000000000000"),
        (0.125, "0.125"),
        (-1.5, "-1.5"),
        (0.1, "0.1"),
        (1e-7, "0.0000001"),
        (123_456.789, "123456.789"),
        (8_999_999_999_999.5, "8999999999999.5"),
        (-0.000_5, "-0.0005"),
    ] {
        let line = Json::Num(value).to_line();
        assert_eq!(line, golden, "encoding {value:?}");
        assert_eq!(json::parse(&line).unwrap(), Json::Num(value), "re-parsing {line}");
    }
}

#[test]
fn strings_and_keys_have_golden_bytes() {
    let value = Json::Obj(vec![
        ("plain".into(), Json::str("text")),
        ("".into(), Json::str("")),
        ("quote\"back\\slash".into(), Json::str("line\nfeed\rreturn\ttab")),
        ("ctl\u{1}\u{1f}".into(), Json::str("\u{0}\u{8}\u{c}\u{7f}")),
        ("é😀".into(), Json::str("naïve 😀 \"q\"")),
        ("nested".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)])),
        ("empty".into(), Json::Obj(vec![])),
    ]);
    let golden = concat!(
        r#"{"plain":"text","":"","quote\"back\\slash":"line\nfeed\rreturn\ttab","#,
        r#""ctl\u0001\u001f":"\u0000\u0008\u000c"#,
        "\u{7f}",
        r#"","é😀":"naïve 😀 \"q\"","nested":[null,true,false],"empty":{}}"#,
    );
    let line = value.to_line();
    assert_eq!(line, golden);
    assert_eq!(json::parse(&line).unwrap(), value);
}

#[test]
fn write_line_appends_the_same_bytes() {
    let value = Json::Arr(vec![Json::Num(-3.0), Json::Num(0.5), Json::str("a\"b")]);
    let mut out = String::from("prefix ");
    value.write_line(&mut out);
    assert_eq!(out, format!("prefix {}", value.to_line()));
    assert_eq!(out, r#"prefix [-3,0.5,"a\"b"]"#);
}

#[test]
fn decision_records_have_golden_bytes() {
    let full = DecisionRecord {
        device: 4_294_967_295,
        start: 1_433_000_000,
        transactions: 17,
        accepted: vec![1, 5, 9, 12],
        actual: vec![5],
        vote: Some(5),
        queue_us: 1234,
    };
    assert_eq!(
        full.to_json().to_line(),
        r#"{"device":4294967295,"start":1433000000,"txs":17,"accepted":[1,5,9,12],"actual":[5],"vote":5,"queue_us":1234}"#
    );
    let empty = DecisionRecord {
        device: 0,
        start: -1_234_567,
        transactions: 0,
        accepted: vec![],
        actual: vec![],
        vote: None,
        queue_us: 0,
    };
    assert_eq!(
        empty.to_json().to_line(),
        r#"{"device":0,"start":-1234567,"txs":0,"accepted":[],"actual":[],"vote":null,"queue_us":0}"#
    );
    let boundary = DecisionRecord {
        start: -8_999_999_999_999_999,
        queue_us: 9_000_000_000_000_000,
        ..empty.clone()
    };
    assert_eq!(
        boundary.to_json().to_line(),
        r#"{"device":0,"start":-8999999999999999,"txs":0,"accepted":[],"actual":[],"vote":null,"queue_us":9000000000000000}"#
    );
    for record in [full, empty] {
        let line = record.to_json().to_line();
        assert_eq!(DecisionRecord::from_json(&json::parse(&line).unwrap()).unwrap(), record);
    }
}

#[test]
fn transaction_tuples_have_golden_bytes() {
    let tx = Transaction {
        timestamp: Timestamp(-1_234_567),
        user: UserId(7),
        device: DeviceId(3),
        site: SiteId(u32::MAX),
        action: HttpAction::Connect,
        scheme: UriScheme::Https,
        category: CategoryId(12),
        subtype: SubtypeId(256),
        app_type: AppTypeId(463),
        reputation: Reputation::High,
        private_destination: true,
    };
    assert_eq!(tx_to_json(&tx).to_line(), "[-1234567,7,3,4294967295,2,1,12,256,463,3,1]");
}
