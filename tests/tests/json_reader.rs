//! The one reader over JSON. `serde_json::from_str` runs each type's
//! derived `Deserialize` through `serde::from_value`, which finds struct
//! fields by name: any key order reads, unknown keys are ignored, and a
//! missing key is named in the error. Every shape the derive supports is
//! here: named, tuple, newtype and unit structs, and unit, tuple and
//! struct enum variants.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Point {
    x: u32,
    y: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Meters(f64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Line(u32, u32),
    Box { w: u32, h: u32 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct All {
    point: Point,
    pair: Pair,
    meters: Meters,
    marker: Marker,
    shapes: Vec<Shape>,
    points: Vec<Point>,
    last: u64,
}

fn expected() -> All {
    All {
        point: Point { x: 1, y: 0.5 },
        pair: Pair(7, "seven".into()),
        meters: Meters(2.5),
        marker: Marker,
        shapes: vec![Shape::Box { w: 11, h: 12 }, Shape::Line(3, 4), Shape::Dot],
        points: vec![Point { x: 5, y: 6.5 }, Point { x: 8, y: 9.5 }],
        last: 99,
    }
}

fn read(json: &str) -> Result<All, serde_json::Error> {
    serde_json::from_str(json)
}

#[test]
fn declaration_order_reads() {
    let json = serde_json::to_string(&expected()).unwrap();
    assert_eq!(
        json,
        r#"{"point":{"x":1,"y":0.5},"pair":[7,"seven"],"meters":2.5,"marker":null,"shapes":[{"Box":{"w":11,"h":12}},{"Line":[3,4]},"Dot"],"points":[{"x":5,"y":6.5},{"x":8,"y":9.5}],"last":99}"#
    );
    assert_eq!(read(&json).unwrap(), expected());
}

#[test]
fn keys_read_in_any_order() {
    // Every struct's keys reversed, at every level.
    let json = r#"{"last":99,"points":[{"y":6.5,"x":5},{"y":9.5,"x":8}],"shapes":[{"Box":{"h":12,"w":11}},{"Line":[3,4]},"Dot"],"marker":null,"meters":2.5,"pair":[7,"seven"],"point":{"y":0.5,"x":1}}"#;
    assert_eq!(read(json).unwrap(), expected());
}

#[test]
fn unknown_keys_are_ignored() {
    // Unknown keys before, between and after the fields, some holding
    // containers. A struct closes after its last field, not after its
    // entry count, so the next sequence element and field still read.
    let json = r#"{"v0":{"x":[1,{"y":2}]},"point":{"x":1,"z":[],"y":0.5,"w":{}},"pair":[7,"seven"],"meters":2.5,"marker":null,"shapes":[{"Box":{"w":11,"d":0,"h":12}},{"Line":[3,4]},"Dot"],"points":[{"x":5,"y":6.5,"t":[[null]]},{"t":"x","x":8,"y":9.5}],"last":99,"end":true}"#;
    assert_eq!(read(json).unwrap(), expected());
}

#[test]
fn a_missing_key_is_named() {
    let json = serde_json::to_string(&expected()).unwrap();
    for (present, key, ty) in [
        (r#","last":99"#, "last", "All"),
        (r#""marker":null,"#, "marker", "All"),
        (r#""pair":[7,"seven"],"#, "pair", "All"),
        (r#""meters":2.5,"#, "meters", "All"),
        (r#","y":0.5"#, "y", "Point"),
        (r#","y":9.5"#, "y", "Point"),
        (r#","h":12"#, "h", "Shape"),
    ] {
        assert_eq!(json.matches(present).count(), 1, "{present}");
        let err = read(&json.replace(present, "")).unwrap_err();
        let named = format!("missing field `{key}` for {ty}");
        assert!(err.to_string().contains(&named), "{present}: {err}");
    }
}

#[test]
fn wrong_shapes_are_refused() {
    let json = serde_json::to_string(&expected()).unwrap();
    for (good, bad) in [
        (r#""pair":[7,"seven"]"#, r#""pair":[7]"#),
        (r#""marker":null"#, r#""marker":0"#),
        (r#"{"Line":[3,4]}"#, r#"{"Line":[3,4],"Dot":null}"#),
        (r#""Dot""#, r#""Square""#),
        (r#""point":{"x":1,"y":0.5}"#, r#""point":[1,0.5]"#),
    ] {
        assert!(read(&json.replace(good, bad)).is_err(), "{bad}");
    }
}
