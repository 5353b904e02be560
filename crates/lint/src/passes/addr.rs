//! Network-addressing checks (`SG02xx`): IP/MAC validity and uniqueness,
//! subnet coherence, GOOSE APPID collisions.

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_scl::{codes, ConnectedAp, Diagnostic};
use std::collections::BTreeMap;

/// Checks addressing consistency across every subnetwork of every SCD.
pub struct AddrPass;

impl LintPass for AddrPass {
    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        // (file, subnetwork name, ap)
        let mut aps: Vec<(&str, &str, &ConnectedAp)> = Vec::new();
        for file in &bundle.scds {
            if let Some(comm) = &file.doc.communication {
                for subnet in &comm.subnetworks {
                    for ap in &subnet.connected_aps {
                        aps.push((&file.name, &subnet.name, ap));
                    }
                }
            }
        }

        check_ips(&aps, out);
        check_macs(&aps, out);
        check_duplicate_hosts(bundle, out);
        check_subnets(&aps, out);
        check_appids(&aps, out);
    }
}

/// SG0203 (invalid) + SG0201 (duplicate) IP addresses.
fn check_ips(aps: &[(&str, &str, &ConnectedAp)], out: &mut Vec<Diagnostic>) {
    let mut first_owner: BTreeMap<&str, &str> = BTreeMap::new();
    for (file, subnet, ap) in aps {
        if ap.ip.is_empty() {
            continue;
        }
        if parse_ipv4(&ap.ip).is_none() {
            out.push(
                Diagnostic::error(
                    codes::INVALID_IP,
                    format!(
                        "invalid IP address {:?} on access point {}",
                        ap.ip, ap.ap_name
                    ),
                    format!("ConnectedAP {}", ap.ied_name),
                )
                .with_pos(file, Some(ap.pos)),
            );
            continue;
        }
        match first_owner.get(ap.ip.as_str()) {
            None => {
                first_owner.insert(&ap.ip, &ap.ied_name);
            }
            Some(owner) if *owner != ap.ied_name => {
                out.push(
                    Diagnostic::error(
                        codes::DUPLICATE_IP,
                        format!("IP address {} is already assigned to {}", ap.ip, owner),
                        format!("SubNetwork {subnet}, ConnectedAP {}", ap.ied_name),
                    )
                    .with_pos(file, Some(ap.pos)),
                );
            }
            Some(_) => {} // the same IED on two subnetworks may reuse its IP
        }
    }
}

/// SG0204 (invalid) + SG0202 (duplicate) MAC addresses.
fn check_macs(aps: &[(&str, &str, &ConnectedAp)], out: &mut Vec<Diagnostic>) {
    let mut first_owner: BTreeMap<&str, &str> = BTreeMap::new();
    for (file, _, ap) in aps {
        let Some(mac) = &ap.mac else { continue };
        if parse_mac(mac).is_none() {
            out.push(
                Diagnostic::warning(
                    codes::INVALID_MAC,
                    format!("invalid MAC address {mac:?}"),
                    format!("ConnectedAP {}", ap.ied_name),
                )
                .with_pos(file, Some(ap.pos)),
            );
            continue;
        }
        match first_owner.get(mac.as_str()) {
            None => {
                first_owner.insert(mac, &ap.ied_name);
            }
            Some(owner) if *owner != ap.ied_name => {
                out.push(
                    Diagnostic::warning(
                        codes::DUPLICATE_MAC,
                        format!("MAC address {mac} is already assigned to {owner}"),
                        format!("ConnectedAP {}", ap.ied_name),
                    )
                    .with_pos(file, Some(ap.pos)),
                );
            }
            Some(_) => {}
        }
    }
}

/// SG0206: one name declared as an IED server twice across the SCDs.
fn check_duplicate_hosts(bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
    let mut first_file: BTreeMap<&str, &str> = BTreeMap::new();
    for file in &bundle.scds {
        for ied in &file.doc.ieds {
            match first_file.get(ied.name.as_str()) {
                None => {
                    first_file.insert(&ied.name, &file.name);
                }
                Some(original) => {
                    out.push(
                        Diagnostic::error(
                            codes::DUPLICATE_HOST,
                            format!("IED {:?} is already declared in {original}", ied.name),
                            format!("IED {}", ied.name),
                        )
                        .with_pos(&file.name, Some(ied.pos)),
                    );
                }
            }
        }
    }
}

/// SG0205: access points whose IP falls outside their subnetwork's dominant
/// subnet (masked with each AP's own `IP-SUBNET`, default /24).
fn check_subnets(aps: &[(&str, &str, &ConnectedAp)], out: &mut Vec<Diagnostic>) {
    let mut by_subnet: BTreeMap<&str, Vec<(&str, &ConnectedAp, u32)>> = BTreeMap::new();
    for (file, subnet, ap) in aps {
        if let Some(ip) = parse_ipv4(&ap.ip) {
            let mask = parse_ipv4(&ap.ip_subnet).unwrap_or(0xFFFF_FF00);
            by_subnet
                .entry(subnet)
                .or_default()
                .push((file, ap, ip & mask));
        }
    }
    for (subnet, members) in by_subnet {
        if members.len() < 2 {
            continue;
        }
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, _, network) in &members {
            *counts.entry(*network).or_default() += 1;
        }
        let Some((&dominant, &count)) = counts.iter().max_by_key(|(_, c)| **c) else {
            continue;
        };
        if count == 1 {
            continue; // no dominant subnet: every AP is its own island, noise
        }
        for (file, ap, network) in members {
            if network != dominant {
                out.push(
                    Diagnostic::warning(
                        codes::SUBNET_MISMATCH,
                        format!(
                            "IP {} is outside the dominant subnet {} of SubNetwork {subnet}",
                            ap.ip,
                            format_ipv4(dominant),
                        ),
                        format!("ConnectedAP {}", ap.ied_name),
                    )
                    .with_pos(file, Some(ap.pos)),
                );
            }
        }
    }
}

/// SG0207: two GOOSE control blocks sharing one APPID on one subnetwork.
fn check_appids(aps: &[(&str, &str, &ConnectedAp)], out: &mut Vec<Diagnostic>) {
    let mut first_owner: BTreeMap<(&str, u16), String> = BTreeMap::new();
    for (file, subnet, ap) in aps {
        for gse in &ap.gse {
            match first_owner.get(&(*subnet, gse.appid)) {
                None => {
                    first_owner.insert(
                        (subnet, gse.appid),
                        format!("{}/{}", ap.ied_name, gse.cb_name),
                    );
                }
                Some(owner) => {
                    out.push(
                        Diagnostic::warning(
                            codes::DUPLICATE_APPID,
                            format!(
                                "GOOSE APPID 0x{:04X} is already used by {owner} on SubNetwork {subnet}",
                                gse.appid
                            ),
                            format!("ConnectedAP {}, GSE {}", ap.ied_name, gse.cb_name),
                        )
                        .with_pos(file, Some(ap.pos)),
                    );
                }
            }
        }
    }
}

/// Parses a dotted-quad IPv4 address.
pub(crate) fn parse_ipv4(s: &str) -> Option<u32> {
    let mut out: u32 = 0;
    let mut octets = 0;
    for part in s.split('.') {
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let value: u32 = part.parse().ok()?;
        if value > 255 {
            return None;
        }
        out = (out << 8) | value;
        octets += 1;
    }
    (octets == 4).then_some(out)
}

fn format_ipv4(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (ip >> 24) & 0xFF,
        (ip >> 16) & 0xFF,
        (ip >> 8) & 0xFF,
        ip & 0xFF
    )
}

/// Parses a MAC address of six hex octets separated by `-` or `:`.
pub(crate) fn parse_mac(s: &str) -> Option<[u8; 6]> {
    let parts: Vec<&str> = if s.contains('-') {
        s.split('-').collect()
    } else {
        s.split(':').collect()
    };
    if parts.len() != 6 {
        return None;
    }
    let mut mac = [0u8; 6];
    for (slot, part) in mac.iter_mut().zip(&parts) {
        if part.len() != 2 {
            return None;
        }
        *slot = u8::from_str_radix(part, 16).ok()?;
    }
    Some(mac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_parser() {
        assert_eq!(parse_ipv4("10.0.1.5"), Some(0x0A000105));
        assert_eq!(parse_ipv4("255.255.255.0"), Some(0xFFFFFF00));
        assert_eq!(parse_ipv4("10.0.1"), None);
        assert_eq!(parse_ipv4("10.0.1.256"), None);
        assert_eq!(parse_ipv4("10.0.1.5.6"), None);
        assert_eq!(parse_ipv4("a.b.c.d"), None);
    }

    #[test]
    fn mac_parser() {
        assert_eq!(
            parse_mac("01-0C-CD-01-00-01"),
            Some([0x01, 0x0C, 0xCD, 0x01, 0x00, 0x01])
        );
        assert_eq!(
            parse_mac("01:0c:cd:01:00:01"),
            Some([0x01, 0x0C, 0xCD, 0x01, 0x00, 0x01])
        );
        assert_eq!(parse_mac("01-0C-CD-01-00"), None);
        assert_eq!(parse_mac("01-0C-CD-01-00-GG"), None);
    }
}
