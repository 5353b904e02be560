//! The SG-ML *IED Config XML* supplementary schema.
//!
//! Per the paper: an ICD alone is not sufficient to instantiate a virtual
//! IED, because "actual threshold for each protection function is not
//! specified in the ICD file" and "the mapping between the naming of data
//! item in the ICD file and the power system simulation output" is missing.
//! This schema supplies both.

use crate::keymap;
use sgcr_ied::{
    BreakerMap, GooseEntry, GooseSpec, IedSpec, MeasurementMap, MonitoredBreaker, ProtectionSpec,
    RsvSpec,
};
use sgcr_net::{Ipv4Addr, SimDuration};
use sgcr_xml::{Document, ElementRef};
use std::fmt;

/// An error parsing IED Config XML.
#[derive(Debug, Clone, PartialEq)]
pub struct IedConfigError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for IedConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for IedConfigError {}

fn err(message: impl Into<String>) -> IedConfigError {
    IedConfigError {
        message: message.into(),
    }
}

/// The parsed IED Config file: one [`IedSpec`] per configured IED.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IedConfig {
    /// Per-IED specs, in file order.
    pub ieds: Vec<IedSpec>,
}

impl IedConfig {
    /// Finds a spec by IED name.
    pub fn ied(&self, name: &str) -> Option<&IedSpec> {
        self.ieds.iter().find(|s| s.name == name)
    }

    /// Parses the IED Config XML.
    ///
    /// # Errors
    ///
    /// Returns [`IedConfigError`] on malformed XML, unknown protection
    /// types, or missing required attributes.
    pub fn parse(text: &str) -> Result<IedConfig, IedConfigError> {
        let doc = Document::parse(text).map_err(|e| err(e.to_string()))?;
        let root = doc.root_element();
        if root.name() != "IEDConfig" {
            return Err(err(format!(
                "expected <IEDConfig>, found <{}>",
                root.name()
            )));
        }
        let mut config = IedConfig::default();
        for ied_el in root.children_named("IED") {
            config.ieds.push(parse_ied(&ied_el)?);
        }
        Ok(config)
    }

    /// Serializes to IED Config XML.
    pub fn to_xml(&self) -> String {
        let mut doc = Document::new("IEDConfig");
        let root = doc.root_id();
        for spec in &self.ieds {
            let i = doc.add_element(root, "IED");
            doc.set_attr(i, "name", &spec.name);
            doc.set_attr(i, "substation", &spec.substation);
            doc.set_attr(i, "ld", &spec.ld);
            doc.set_attr(
                i,
                "samplePeriodMs",
                &spec.sample_period.as_millis().to_string(),
            );
            for m in &spec.measurements {
                let e = doc.add_element(i, "Measurement");
                doc.set_attr(e, "item", &m.item);
                doc.set_attr(e, "key", &m.kv_key);
            }
            for b in &spec.breakers {
                let e = doc.add_element(i, "Breaker");
                doc.set_attr(e, "name", &b.name);
                doc.set_attr(e, "xcbr", &b.xcbr);
                doc.set_attr(e, "cswi", &b.cswi);
                if b.interlocked {
                    doc.set_attr(e, "interlocked", "true");
                }
            }
            for p in &spec.protections {
                let e = doc.add_element(i, "Protection");
                doc.set_attr(e, "ln", p.ln());
                match p {
                    ProtectionSpec::Ptoc {
                        measurement_key,
                        pickup,
                        delay_ms,
                        breaker,
                        ..
                    } => {
                        doc.set_attr(e, "type", "PTOC");
                        doc.set_attr(e, "measurementKey", measurement_key);
                        doc.set_attr(e, "threshold", &pickup.to_string());
                        doc.set_attr(e, "delayMs", &delay_ms.to_string());
                        doc.set_attr(e, "breaker", breaker);
                    }
                    ProtectionSpec::Ptov {
                        voltage_key,
                        threshold_pu,
                        delay_ms,
                        breaker,
                        ..
                    } => {
                        doc.set_attr(e, "type", "PTOV");
                        doc.set_attr(e, "measurementKey", voltage_key);
                        doc.set_attr(e, "threshold", &threshold_pu.to_string());
                        doc.set_attr(e, "delayMs", &delay_ms.to_string());
                        doc.set_attr(e, "breaker", breaker);
                    }
                    ProtectionSpec::Ptuv {
                        voltage_key,
                        threshold_pu,
                        delay_ms,
                        breaker,
                        ..
                    } => {
                        doc.set_attr(e, "type", "PTUV");
                        doc.set_attr(e, "measurementKey", voltage_key);
                        doc.set_attr(e, "threshold", &threshold_pu.to_string());
                        doc.set_attr(e, "delayMs", &delay_ms.to_string());
                        doc.set_attr(e, "breaker", breaker);
                    }
                    ProtectionSpec::Pdif {
                        local_current_key,
                        threshold,
                        delay_ms,
                        breaker,
                        ..
                    } => {
                        doc.set_attr(e, "type", "PDIF");
                        doc.set_attr(e, "measurementKey", local_current_key);
                        doc.set_attr(e, "threshold", &threshold.to_string());
                        doc.set_attr(e, "delayMs", &delay_ms.to_string());
                        doc.set_attr(e, "breaker", breaker);
                    }
                    ProtectionSpec::Cilo {
                        breaker, monitored, ..
                    } => {
                        doc.set_attr(e, "type", "CILO");
                        doc.set_attr(e, "breaker", breaker);
                        for m in monitored {
                            let mon = doc.add_element(e, "Monitor");
                            doc.set_attr(mon, "reference", &m.reference);
                            doc.set_attr(mon, "gocbRef", &m.gocb_ref);
                            doc.set_attr(mon, "index", &m.dataset_index.to_string());
                        }
                    }
                }
            }
            if let Some(goose) = &spec.goose {
                let e = doc.add_element(i, "Goose");
                doc.set_attr(e, "appid", &format!("{:04X}", goose.appid));
                doc.set_attr(e, "gocbRef", &goose.gocb_ref);
                doc.set_attr(e, "dataset", &goose.dataset);
                for entry in &goose.entries {
                    let en = doc.add_element(e, "Entry");
                    match entry {
                        GooseEntry::BreakerState(name) => {
                            doc.set_attr(en, "kind", "breaker");
                            doc.set_attr(en, "name", name);
                        }
                        GooseEntry::ProtectionOp(ln) => {
                            doc.set_attr(en, "kind", "protection");
                            doc.set_attr(en, "ln", ln);
                        }
                    }
                }
                for peer in &goose.rgoose_peers {
                    let pe = doc.add_element(e, "RGoosePeer");
                    doc.set_attr(pe, "ip", &peer.to_string());
                }
            }
            if let Some(rsv) = &spec.rsv {
                let e = doc.add_element(i, "Rsv");
                doc.set_attr(e, "svId", &rsv.sv_id);
                doc.set_attr(e, "currentKey", &rsv.current_key);
                if let Some(sub) = &rsv.subscribe_sv_id {
                    doc.set_attr(e, "subscribe", sub);
                }
                for peer in &rsv.peers {
                    let pe = doc.add_element(e, "Peer");
                    doc.set_attr(pe, "ip", &peer.to_string());
                }
            }
        }
        doc.to_xml()
    }
}

fn parse_ied(ied_el: &ElementRef<'_>) -> Result<IedSpec, IedConfigError> {
    let name = ied_el.attr_or("name", "").to_string();
    if name.is_empty() {
        return Err(err("IED without a name"));
    }
    let substation = ied_el.attr_or("substation", "").to_string();
    let mut spec = IedSpec::new(&name, &substation);
    if let Some(ld) = ied_el.attr("ld") {
        spec.ld = ld.to_string();
    }
    if let Some(ms) = ied_el.attr_parse::<u64>("samplePeriodMs") {
        spec.sample_period = SimDuration::from_millis(ms);
    }
    for m in ied_el.children_named("Measurement") {
        spec.measurements.push(MeasurementMap {
            item: m
                .attr("item")
                .ok_or_else(|| err(format!("{name}: Measurement missing item")))?
                .to_string(),
            kv_key: m
                .attr("key")
                .ok_or_else(|| err(format!("{name}: Measurement missing key")))?
                .to_string(),
        });
    }
    for b in ied_el.children_named("Breaker") {
        let breaker_name = b
            .attr("name")
            .ok_or_else(|| err(format!("{name}: Breaker missing name")))?
            .to_string();
        let scoped = format!("{substation}/{breaker_name}");
        spec.breakers.push(BreakerMap {
            state_key: keymap::breaker_state_key(&scoped),
            cmd_key: keymap::breaker_cmd_key(&scoped),
            name: breaker_name,
            xcbr: b.attr_or("xcbr", "XCBR1").to_string(),
            cswi: b.attr_or("cswi", "CSWI1").to_string(),
            interlocked: b.attr("interlocked") == Some("true"),
        });
    }
    for p in ied_el.children_named("Protection") {
        let ln = p.attr_or("ln", "").to_string();
        let breaker = p.attr_or("breaker", "").to_string();
        let key = p.attr_or("measurementKey", "").to_string();
        let threshold: f64 = p.attr_parse("threshold").unwrap_or(0.0);
        let delay_ms: u64 = p.attr_parse("delayMs").unwrap_or(0);
        let protection = match p.attr_or("type", "") {
            "PTOC" => ProtectionSpec::Ptoc {
                ln,
                measurement_key: key,
                pickup: threshold,
                delay_ms,
                breaker,
            },
            "PTOV" => ProtectionSpec::Ptov {
                ln,
                voltage_key: key,
                threshold_pu: threshold,
                delay_ms,
                breaker,
            },
            "PTUV" => ProtectionSpec::Ptuv {
                ln,
                voltage_key: key,
                threshold_pu: threshold,
                delay_ms,
                breaker,
            },
            "PDIF" => ProtectionSpec::Pdif {
                ln,
                local_current_key: key,
                threshold,
                delay_ms,
                breaker,
            },
            "CILO" => {
                let monitored = p
                    .children_named("Monitor")
                    .iter()
                    .map(|m| {
                        Ok(MonitoredBreaker {
                            reference: m
                                .attr("reference")
                                .ok_or_else(|| err("Monitor missing reference"))?
                                .to_string(),
                            gocb_ref: m
                                .attr("gocbRef")
                                .ok_or_else(|| err("Monitor missing gocbRef"))?
                                .to_string(),
                            dataset_index: m.attr_parse("index").unwrap_or(0),
                        })
                    })
                    .collect::<Result<Vec<_>, IedConfigError>>()?;
                ProtectionSpec::Cilo {
                    ln,
                    breaker,
                    monitored,
                }
            }
            other => return Err(err(format!("{name}: unknown protection type {other:?}"))),
        };
        spec.protections.push(protection);
    }
    if let Some(g) = ied_el.child("Goose") {
        let appid = u16::from_str_radix(g.attr_or("appid", "0"), 16)
            .map_err(|_| err(format!("{name}: bad GOOSE appid")))?;
        let entries = g
            .children_named("Entry")
            .iter()
            .map(|e| match e.attr_or("kind", "") {
                "breaker" => Ok(GooseEntry::BreakerState(e.attr_or("name", "").to_string())),
                "protection" => Ok(GooseEntry::ProtectionOp(e.attr_or("ln", "").to_string())),
                other => Err(err(format!("{name}: unknown GOOSE entry kind {other:?}"))),
            })
            .collect::<Result<Vec<_>, IedConfigError>>()?;
        let rgoose_peers = g
            .children_named("RGoosePeer")
            .iter()
            .filter_map(|p| p.attr("ip").and_then(|ip| ip.parse::<Ipv4Addr>().ok()))
            .collect();
        spec.goose = Some(GooseSpec {
            appid,
            gocb_ref: g.attr_or("gocbRef", "").to_string(),
            dataset: g.attr_or("dataset", "").to_string(),
            entries,
            rgoose_peers,
        });
    }
    if let Some(r) = ied_el.child("Rsv") {
        spec.rsv = Some(RsvSpec {
            sv_id: r.attr_or("svId", "").to_string(),
            current_key: r.attr_or("currentKey", "").to_string(),
            subscribe_sv_id: r.attr("subscribe").map(str::to_string),
            peers: r
                .children_named("Peer")
                .iter()
                .filter_map(|p| p.attr("ip").and_then(|ip| ip.parse().ok()))
                .collect(),
        });
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<IEDConfig>
  <IED name="GIED1" substation="S1" ld="GIED1LD0" samplePeriodMs="100">
    <Measurement item="MMXU1$MX$TotW$mag$f" key="meas/S1/branch/S1.l1/p_mw"/>
    <Breaker name="CB1" xcbr="XCBR1" cswi="CSWI1" interlocked="true"/>
    <Protection type="PTOC" ln="PTOC1" measurementKey="meas/S1/branch/S1.l1/i_ka"
                threshold="1.2" delayMs="200" breaker="CB1"/>
    <Protection type="CILO" ln="CILO1" breaker="CB1">
      <Monitor reference="S2/CB1" gocbRef="S2IED1LD0/LLN0$GO$gcb01" index="0"/>
    </Protection>
    <Goose appid="3001" gocbRef="GIED1LD0/LLN0$GO$gcb01" dataset="GIED1LD0/LLN0$DS1">
      <Entry kind="breaker" name="CB1"/>
      <Entry kind="protection" ln="PTOC1"/>
      <RGoosePeer ip="10.0.2.11"/>
    </Goose>
    <Rsv svId="GIED1-SV" currentKey="meas/S1/branch/S1.l1/i_ka" subscribe="S2IED1-SV">
      <Peer ip="10.0.2.11"/>
    </Rsv>
  </IED>
</IEDConfig>"#;

    #[test]
    fn parse_sample() {
        let config = IedConfig::parse(SAMPLE).unwrap();
        assert_eq!(config.ieds.len(), 1);
        let spec = config.ied("GIED1").unwrap();
        assert_eq!(spec.substation, "S1");
        assert_eq!(spec.measurements.len(), 1);
        assert_eq!(spec.breakers[0].state_key, "meas/S1/cb/CB1/closed");
        assert_eq!(spec.breakers[0].cmd_key, "cmd/S1/cb/CB1/close");
        assert!(spec.breakers[0].interlocked);
        assert_eq!(spec.protections.len(), 2);
        assert!(matches!(
            &spec.protections[0],
            ProtectionSpec::Ptoc { pickup, delay_ms, .. } if *pickup == 1.2 && *delay_ms == 200
        ));
        let goose = spec.goose.as_ref().unwrap();
        assert_eq!(goose.appid, 0x3001);
        assert_eq!(goose.entries.len(), 2);
        assert_eq!(goose.rgoose_peers.len(), 1);
        let rsv = spec.rsv.as_ref().unwrap();
        assert_eq!(rsv.subscribe_sv_id.as_deref(), Some("S2IED1-SV"));
    }

    #[test]
    fn xml_roundtrip() {
        let config = IedConfig::parse(SAMPLE).unwrap();
        let text = config.to_xml();
        let reparsed = IedConfig::parse(&text).unwrap();
        assert_eq!(reparsed, config);
    }

    #[test]
    fn errors() {
        assert!(IedConfig::parse("<Wrong/>").is_err());
        assert!(IedConfig::parse(
            r#"<IEDConfig><IED name="x"><Protection type="PFREQ"/></IED></IEDConfig>"#
        )
        .is_err());
        assert!(IedConfig::parse(
            r#"<IEDConfig><IED name="x"><Measurement item="a"/></IED></IEDConfig>"#
        )
        .is_err());
    }
}
