//! SCADA configuration: the SG-ML *SCADA Config XML* schema (data sources
//! and data points, which the paper notes "are not part of the SCL files"),
//! plus the translation to ScadaBR-style import JSON that the paper's
//! toolchain performs.

use sgcr_obs::json;
use sgcr_xml::Document;
use std::fmt;

/// How a data point is addressed on a Modbus source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModbusPointKind {
    /// Coil (read/write bit).
    Coil,
    /// Discrete input (read-only bit).
    Discrete,
    /// Holding register (read/write word).
    Holding,
    /// Input register (read-only word).
    Input,
}

impl ModbusPointKind {
    /// Parses the XML `kind` attribute.
    pub fn parse(s: &str) -> Option<ModbusPointKind> {
        Some(match s.to_lowercase().as_str() {
            "coil" => ModbusPointKind::Coil,
            "discrete" => ModbusPointKind::Discrete,
            "holding" => ModbusPointKind::Holding,
            "input" => ModbusPointKind::Input,
            _ => return None,
        })
    }

    /// The XML attribute value.
    pub fn name(self) -> &'static str {
        match self {
            ModbusPointKind::Coil => "coil",
            ModbusPointKind::Discrete => "discrete",
            ModbusPointKind::Holding => "holding",
            ModbusPointKind::Input => "input",
        }
    }
}

/// The address of a data point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointAddress {
    /// A Modbus table entry.
    Modbus {
        /// Which table.
        kind: ModbusPointKind,
        /// Register/bit index.
        address: u16,
    },
    /// An MMS item id.
    Mms {
        /// Full item (`GIED1LD0/MMXU1$MX$TotW$mag$f`).
        item: String,
    },
}

/// One data point (tag) of the HMI.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Tag name (unique across the HMI).
    pub name: String,
    /// Address on its data source.
    pub address: PointAddress,
    /// Multiplier applied to raw values.
    pub scale: f64,
    /// Minimum change to record (engineering units).
    pub deadband: f64,
    /// Whether operators may write this point.
    pub writable: bool,
}

/// The protocol of a data source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceProtocol {
    /// Modbus TCP (towards the PLC).
    Modbus {
        /// Unit id.
        unit: u8,
    },
    /// IEC 61850 MMS (towards IEDs).
    Mms,
}

/// A polled data source.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSource {
    /// Source name.
    pub name: String,
    /// Protocol.
    pub protocol: SourceProtocol,
    /// Server IP.
    pub ip: String,
    /// Server TCP port (502 Modbus / 102 MMS).
    pub port: u16,
    /// Poll period in milliseconds.
    pub poll_ms: u64,
    /// Points on this source.
    pub points: Vec<DataPoint>,
}

/// Alarm comparison kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlarmKind {
    /// Value above limit.
    High(f64),
    /// Value below limit.
    Low(f64),
    /// Boolean became true.
    StateTrue,
    /// Boolean became false.
    StateFalse,
}

/// An alarm rule over a tag.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmRule {
    /// Tag name the rule watches.
    pub point: String,
    /// Condition.
    pub kind: AlarmKind,
    /// Operator-facing message.
    pub message: String,
}

/// The complete HMI configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScadaConfig {
    /// HMI name.
    pub name: String,
    /// Data sources.
    pub sources: Vec<DataSource>,
    /// Alarm rules.
    pub alarms: Vec<AlarmRule>,
}

/// An error parsing SCADA Config XML.
#[derive(Debug, Clone, PartialEq)]
pub struct ScadaConfigError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScadaConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ScadaConfigError {}

fn err(message: impl Into<String>) -> ScadaConfigError {
    ScadaConfigError {
        message: message.into(),
    }
}

impl ScadaConfig {
    /// Parses the SG-ML SCADA Config XML.
    ///
    /// # Errors
    ///
    /// Returns [`ScadaConfigError`] on malformed XML or missing attributes.
    pub fn parse(text: &str) -> Result<ScadaConfig, ScadaConfigError> {
        let doc = Document::parse(text).map_err(|e| err(e.to_string()))?;
        let root = doc.root_element();
        if root.name() != "ScadaConfig" {
            return Err(err(format!(
                "expected <ScadaConfig>, found <{}>",
                root.name()
            )));
        }
        let mut config = ScadaConfig {
            name: root.attr_or("name", "HMI").to_string(),
            ..ScadaConfig::default()
        };
        for source_el in root.children_named("DataSource") {
            let name = source_el.attr_or("name", "").to_string();
            let ip = source_el
                .attr("ip")
                .ok_or_else(|| err(format!("data source {name:?} missing ip")))?
                .to_string();
            let type_name = source_el.attr_or("type", "MODBUS").to_uppercase();
            let (protocol, default_port) = match type_name.as_str() {
                "MODBUS" => (
                    SourceProtocol::Modbus {
                        unit: source_el.attr_parse("unit").unwrap_or(1),
                    },
                    502,
                ),
                "MMS" | "IEC61850" => (SourceProtocol::Mms, 102),
                other => return Err(err(format!("unknown data source type {other:?}"))),
            };
            let mut points = Vec::new();
            for point_el in source_el.children_named("Point") {
                let point_name = point_el.attr_or("name", "").to_string();
                if point_name.is_empty() {
                    return Err(err(format!("point without a name on source {name:?}")));
                }
                let address = if let Some(item) = point_el.attr("item") {
                    PointAddress::Mms {
                        item: item.to_string(),
                    }
                } else {
                    let kind = ModbusPointKind::parse(point_el.attr_or("kind", ""))
                        .ok_or_else(|| err(format!("point {point_name:?} has invalid kind")))?;
                    let address = point_el
                        .attr_parse("address")
                        .ok_or_else(|| err(format!("point {point_name:?} missing address")))?;
                    PointAddress::Modbus { kind, address }
                };
                points.push(DataPoint {
                    name: point_name,
                    address,
                    scale: point_el.attr_parse("scale").unwrap_or(1.0),
                    deadband: point_el.attr_parse("deadband").unwrap_or(0.0),
                    writable: point_el.attr("writable") == Some("true"),
                });
            }
            config.sources.push(DataSource {
                name,
                protocol,
                ip,
                port: source_el.attr_parse("port").unwrap_or(default_port),
                poll_ms: source_el.attr_parse("pollMs").unwrap_or(1000),
                points,
            });
        }
        for alarm_el in root.children_named("Alarm") {
            let kind = match alarm_el.attr_or("kind", "") {
                "high" => AlarmKind::High(alarm_el.attr_parse("limit").unwrap_or(f64::MAX)),
                "low" => AlarmKind::Low(alarm_el.attr_parse("limit").unwrap_or(f64::MIN)),
                "true" => AlarmKind::StateTrue,
                "false" => AlarmKind::StateFalse,
                other => return Err(err(format!("unknown alarm kind {other:?}"))),
            };
            config.alarms.push(AlarmRule {
                point: alarm_el.attr_or("point", "").to_string(),
                kind,
                message: alarm_el.attr_or("message", "").to_string(),
            });
        }
        Ok(config)
    }

    /// Serializes back to SCADA Config XML.
    pub fn to_xml(&self) -> String {
        let mut doc = Document::new("ScadaConfig");
        let root = doc.root_id();
        doc.set_attr(root, "name", &self.name);
        for source in &self.sources {
            let s = doc.add_element(root, "DataSource");
            doc.set_attr(s, "name", &source.name);
            match &source.protocol {
                SourceProtocol::Modbus { unit } => {
                    doc.set_attr(s, "type", "MODBUS");
                    doc.set_attr(s, "unit", &unit.to_string());
                }
                SourceProtocol::Mms => doc.set_attr(s, "type", "MMS"),
            }
            doc.set_attr(s, "ip", &source.ip);
            doc.set_attr(s, "port", &source.port.to_string());
            doc.set_attr(s, "pollMs", &source.poll_ms.to_string());
            for point in &source.points {
                let p = doc.add_element(s, "Point");
                doc.set_attr(p, "name", &point.name);
                match &point.address {
                    PointAddress::Modbus { kind, address } => {
                        doc.set_attr(p, "kind", kind.name());
                        doc.set_attr(p, "address", &address.to_string());
                    }
                    PointAddress::Mms { item } => doc.set_attr(p, "item", item),
                }
                if point.scale != 1.0 {
                    doc.set_attr(p, "scale", &point.scale.to_string());
                }
                if point.deadband != 0.0 {
                    doc.set_attr(p, "deadband", &point.deadband.to_string());
                }
                if point.writable {
                    doc.set_attr(p, "writable", "true");
                }
            }
        }
        for alarm in &self.alarms {
            let a = doc.add_element(root, "Alarm");
            doc.set_attr(a, "point", &alarm.point);
            match alarm.kind {
                AlarmKind::High(limit) => {
                    doc.set_attr(a, "kind", "high");
                    doc.set_attr(a, "limit", &limit.to_string());
                }
                AlarmKind::Low(limit) => {
                    doc.set_attr(a, "kind", "low");
                    doc.set_attr(a, "limit", &limit.to_string());
                }
                AlarmKind::StateTrue => doc.set_attr(a, "kind", "true"),
                AlarmKind::StateFalse => doc.set_attr(a, "kind", "false"),
            }
            doc.set_attr(a, "message", &alarm.message);
        }
        doc.to_xml()
    }

    /// Translates to the ScadaBR-style import JSON the paper's script emits
    /// (`dataSources` + `dataPoints` arrays), in the shared
    /// [`json::pretty`] layout (one source or point per line).
    pub fn to_scadabr_json(&self) -> String {
        json::pretty(&json::object_string(256 + self.sources.len() * 512, |o| {
            o.array("dataSources", |sources| {
                for (i, source) in self.sources.iter().enumerate() {
                    let type_name = match source.protocol {
                        SourceProtocol::Modbus { .. } => "MODBUS_IP",
                        SourceProtocol::Mms => "IEC61850",
                    };
                    sources.object(|o| {
                        o.field("xid", format_args!("DS_{}", i + 1))
                            .field("name", &source.name)
                            .field("type", type_name)
                            .field("host", &source.ip)
                            .field("port", source.port)
                            .field("updatePeriods", source.poll_ms);
                        if let SourceProtocol::Modbus { unit } = source.protocol {
                            o.field("slaveId", unit).field("transportType", "TCP");
                        }
                    });
                }
            });
            o.array("dataPoints", |points| {
                let sources = self.sources.iter().enumerate();
                let all = sources.flat_map(|(i, s)| s.points.iter().map(move |p| (i + 1, p)));
                for (n, (source, point)) in all.enumerate() {
                    points.object(|o| {
                        o.field("xid", format_args!("DP_{}", n + 1))
                            .field("name", &point.name)
                            .field("dataSourceXid", format_args!("DS_{source}"));
                        match &point.address {
                            PointAddress::Modbus { kind, address } => {
                                let range = match kind {
                                    ModbusPointKind::Coil => "COIL_STATUS",
                                    ModbusPointKind::Discrete => "INPUT_STATUS",
                                    ModbusPointKind::Holding => "HOLDING_REGISTER",
                                    ModbusPointKind::Input => "INPUT_REGISTER",
                                };
                                o.field("range", range).field("offset", address)
                            }
                            PointAddress::Mms { item } => o.field("objectReference", item),
                        };
                        o.field("multiplier", point.scale)
                            .field("settable", point.writable);
                    });
                }
            });
        }))
    }

    /// Finds a point and its source by tag name.
    pub fn find_point(&self, tag: &str) -> Option<(&DataSource, &DataPoint)> {
        for source in &self.sources {
            if let Some(point) = source.points.iter().find(|p| p.name == tag) {
                return Some((source, point));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<ScadaConfig name="EPIC-HMI">
  <DataSource name="CPLC" type="MODBUS" ip="10.0.1.20" port="502" unit="1" pollMs="500">
    <Point name="Gen1_P" kind="input" address="0" scale="0.1"/>
    <Point name="CB1_cmd" kind="coil" address="0" writable="true"/>
  </DataSource>
  <DataSource name="GIED1" type="MMS" ip="10.0.1.11" pollMs="1000">
    <Point name="GIED1_TotW" item="GIED1LD0/MMXU1$MX$TotW$mag$f" deadband="0.5"/>
  </DataSource>
  <Alarm point="Gen1_P" kind="high" limit="50" message="Generator overload"/>
  <Alarm point="CB1_cmd" kind="true" message="CB1 commanded"/>
</ScadaConfig>"#;

    #[test]
    fn parse_sample() {
        let config = ScadaConfig::parse(SAMPLE).unwrap();
        assert_eq!(config.name, "EPIC-HMI");
        assert_eq!(config.sources.len(), 2);
        assert_eq!(config.sources[0].poll_ms, 500);
        assert_eq!(
            config.sources[0].points[0].address,
            PointAddress::Modbus {
                kind: ModbusPointKind::Input,
                address: 0
            }
        );
        assert!(config.sources[0].points[1].writable);
        assert_eq!(config.sources[1].protocol, SourceProtocol::Mms);
        assert_eq!(config.sources[1].port, 102);
        assert_eq!(config.alarms.len(), 2);
        assert_eq!(config.alarms[0].kind, AlarmKind::High(50.0));
    }

    #[test]
    fn xml_roundtrip() {
        let config = ScadaConfig::parse(SAMPLE).unwrap();
        let text = config.to_xml();
        let reparsed = ScadaConfig::parse(&text).unwrap();
        assert_eq!(reparsed, config);
    }

    #[test]
    fn scadabr_json_translation() {
        let config = ScadaConfig::parse(SAMPLE).unwrap();
        let json = config.to_scadabr_json();
        assert!(json.contains("\"type\": \"MODBUS_IP\""));
        assert!(json.contains("\"type\": \"IEC61850\""));
        assert!(json.contains("\"range\": \"COIL_STATUS\""));
        assert!(json.contains("GIED1LD0/MMXU1$MX$TotW$mag$f"));
        assert!(json.contains("\"settable\": true"));
    }

    #[test]
    fn errors() {
        assert!(ScadaConfig::parse("<Wrong/>").is_err());
        assert!(ScadaConfig::parse(
            r#"<ScadaConfig><DataSource name="x" type="MODBUS"/></ScadaConfig>"#
        )
        .is_err());
        assert!(ScadaConfig::parse(
            r#"<ScadaConfig><DataSource name="x" type="CARRIERPIGEON" ip="1.2.3.4"/></ScadaConfig>"#
        )
        .is_err());
    }

    #[test]
    fn find_point() {
        let config = ScadaConfig::parse(SAMPLE).unwrap();
        let (source, point) = config.find_point("GIED1_TotW").unwrap();
        assert_eq!(source.name, "GIED1");
        assert_eq!(point.deadband, 0.5);
        assert!(config.find_point("nope").is_none());
    }
}
