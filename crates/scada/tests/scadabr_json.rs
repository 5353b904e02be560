//! Structural validation of the ScadaBR-style JSON translation — the
//! paper's "script to translate the SCADA Config XML into a JSON format
//! that SCADABR can import". Every case reads the output back through the
//! workspace's JSON parser, so it is guaranteed parseable by a real importer.

use sgcr_obs::json::{self, Value};
use sgcr_scada::ScadaConfig;

const CONFIG: &str = r#"<ScadaConfig name="json-test">
  <DataSource name="PLC &quot;main&quot;" type="MODBUS" ip="10.0.0.1" pollMs="500">
    <Point name="P1" kind="holding" address="0" scale="0.1"/>
    <Point name="C1" kind="coil" address="3" writable="true"/>
  </DataSource>
  <DataSource name="IED1" type="MMS" ip="10.0.0.2" pollMs="1000">
    <Point name="V1" item="IED1LD0/MMXU1$MX$PhV$mag$f"/>
  </DataSource>
</ScadaConfig>"#;

fn parsed(config: &ScadaConfig) -> Value {
    let text = config.to_scadabr_json();
    json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{text}"))
}

fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_array).unwrap()
}

#[test]
fn json_is_structurally_valid() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    let doc = parsed(&config);
    assert_eq!(array(&doc, "dataSources").len(), 2);
    assert_eq!(array(&doc, "dataPoints").len(), 3);
}

#[test]
fn json_escapes_quotes_in_names() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    assert!(config.to_scadabr_json().contains(r#"PLC \"main\""#));
    let doc = parsed(&config);
    let name = array(&doc, "dataSources")[0]
        .get("name")
        .and_then(Value::as_str);
    assert_eq!(name, Some("PLC \"main\""));
}

#[test]
fn json_escapes_control_characters_in_names() {
    let xml = CONFIG.replace("IED1\" type", "IED&#10;one&#9;two\" type");
    let config = ScadaConfig::parse(&xml).unwrap();
    assert_eq!(config.sources[1].name, "IED\none\ttwo");
    let doc = parsed(&config);
    let name = array(&doc, "dataSources")[1]
        .get("name")
        .and_then(Value::as_str);
    assert_eq!(name, Some("IED\none\ttwo"));
}

#[test]
fn json_carries_addressing_for_both_protocols() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    let json = config.to_scadabr_json();
    assert!(json.contains("\"range\": \"HOLDING_REGISTER\", \"offset\": 0"));
    assert!(json.contains("\"range\": \"COIL_STATUS\", \"offset\": 3"));
    assert!(json.contains("\"objectReference\": \"IED1LD0/MMXU1$MX$PhV$mag$f\""));
    assert!(json.contains("\"settable\": true"));
    assert!(json.contains("\"multiplier\": 0.1"));
    assert!(
        json.contains("\"multiplier\": 1.0"),
        "integral scales keep float shape"
    );
}

#[test]
fn empty_config_has_empty_arrays() {
    let config = ScadaConfig::parse(r#"<ScadaConfig name="empty"/>"#).unwrap();
    assert_eq!(
        config.to_scadabr_json(),
        "{\n  \"dataSources\": [],\n  \"dataPoints\": []\n}\n"
    );
}

#[test]
fn every_point_references_an_emitted_source() {
    let config = ScadaConfig::parse(CONFIG).unwrap();
    let doc = parsed(&config);
    let xid = |v: &Value| v.get("xid").and_then(Value::as_str).unwrap().to_string();
    let sources: Vec<String> = array(&doc, "dataSources").iter().map(xid).collect();
    assert_eq!(sources, ["DS_1", "DS_2"]);
    let points: Vec<String> = array(&doc, "dataPoints").iter().map(xid).collect();
    assert_eq!(points, ["DP_1", "DP_2", "DP_3"]);
    for point in array(&doc, "dataPoints") {
        let source = point.get("dataSourceXid").and_then(Value::as_str).unwrap();
        assert!(sources.iter().any(|s| s == source), "{source}");
    }
}
