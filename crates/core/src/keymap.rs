//! The process-store key space: the one place that spells a key.
//!
//! The SG-ML *IED Config XML* maps IEC 61850 data items onto keys of the
//! process store that couples the cyber and physical halves of a range.
//! The power-flow stepper writes the `meas/` keys and obeys the `cmd/` keys;
//! virtual IEDs read the former and write the latter. Every key is built by
//! a function of this module from a *scoped element name*, so both sides
//! agree by construction.
//!
//! # Grammar
//!
//! | key | value | written by |
//! |---|---|---|
//! | `meas/<sub>/bus/<bus>/vm_pu` | float, per-unit | power plane |
//! | `meas/<sub>/bus/<bus>/va_deg` | float, degrees | power plane |
//! | `meas/<sub>/branch/<branch>/p_mw` | float, from side | power plane |
//! | `meas/<sub>/branch/<branch>/q_mvar` | float, from side | power plane |
//! | `meas/<sub>/branch/<branch>/i_ka` | float, from side | power plane |
//! | `meas/<sub>/branch/<branch>/loading` | float, percent | power plane |
//! | `meas/<sub>/cb/<cb>/closed` | bool | power plane |
//! | `meas/<sub>/src/<source>/p_mw` | float | power plane |
//! | `meas/<sub>/load/<load>/p_mw` | float | power plane |
//! | `cmd/<sub>/cb/<cb>/close` | bool: close / open | cyber side |
//! | `cmd/<sub>/load/<load>/p_mw` | float set-point | cyber side |
//! | `cmd/<sub>/gen/<gen>/p_mw` | float set-point | cyber side |
//! | [`SIM_STEP`] (`sim/step`) | int, steps completed | power plane |
//!
//! A *branch* is a line or a transformer; a *source* is an external grid,
//! a generator or a static generator. A `gen` command addresses a generator
//! and, when no generator has that name, a static generator. The power plane
//! applies a command at its next step; a command whose value has the wrong
//! type, or whose element does not exist, is ignored.
//!
//! # Scoped names
//!
//! The SSD compiler names power elements `"<substation>/<name>"`, and buses
//! by their full connectivity-node path (`"S1/VL1/B1/CN1"`). A key takes the
//! substation from the text before the first slash and the element from the
//! rest, with any further slashes replaced by dots, so a key always has
//! exactly five `/`-separated segments. A name without a slash belongs to
//! substation `sys`.
//!
//! ```
//! use sgcr_core::keymap;
//!
//! assert_eq!(keymap::bus_vm_key("S1/VL1/B1/CN1"), "meas/S1/bus/VL1.B1.CN1/vm_pu");
//! assert_eq!(keymap::breaker_cmd_key("S1/CB1"), "cmd/S1/cb/CB1/close");
//! assert_eq!(keymap::gen_cmd_key("G1"), "cmd/sys/gen/G1/p_mw");
//! ```

/// The simulation step counter: the number of power-flow steps completed.
pub const SIM_STEP: &str = "sim/step";

/// Builds `<root>/<substation>/<class>/<element>/<field>` from a scoped name.
fn key(root: &str, class: &str, scoped: &str, field: &str) -> String {
    let (substation, rest) = scoped.split_once('/').unwrap_or(("sys", scoped));
    format!(
        "{root}/{substation}/{class}/{}/{field}",
        rest.replace('/', ".")
    )
}

/// Key of a bus voltage magnitude, from the bus's path name.
pub fn bus_vm_key(bus_path: &str) -> String {
    key("meas", "bus", bus_path, "vm_pu")
}

/// Key of a bus voltage angle.
pub fn bus_va_key(bus_path: &str) -> String {
    key("meas", "bus", bus_path, "va_deg")
}

/// Key of a branch's active power (from side).
pub fn branch_p_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "p_mw")
}

/// Key of a branch's reactive power.
pub fn branch_q_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "q_mvar")
}

/// Key of a branch's current (kA).
pub fn branch_i_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "i_ka")
}

/// Key of a branch's loading percentage.
pub fn branch_loading_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "loading")
}

/// Key of a breaker's position feedback.
pub fn breaker_state_key(switch_name: &str) -> String {
    key("meas", "cb", switch_name, "closed")
}

/// Key of a source's (ext grid / generator) supplied active power.
pub fn source_p_key(name: &str) -> String {
    key("meas", "src", name, "p_mw")
}

/// Key of a load's actual demand.
pub fn load_p_key(name: &str) -> String {
    key("meas", "load", name, "p_mw")
}

/// Key of a breaker's command.
pub fn breaker_cmd_key(switch_name: &str) -> String {
    key("cmd", "cb", switch_name, "close")
}

/// Key of a load's active-power set-point command.
pub fn load_cmd_key(load_name: &str) -> String {
    key("cmd", "load", load_name, "p_mw")
}

/// Key of a generator's (or static generator's) active-power set-point
/// command.
pub fn gen_cmd_key(gen_name: &str) -> String {
    key("cmd", "gen", gen_name, "p_mw")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping() {
        assert_eq!(bus_vm_key("S1/VL1/B1/CN1"), "meas/S1/bus/VL1.B1.CN1/vm_pu");
        assert_eq!(bus_va_key("S1/VL1/B1/CN1"), "meas/S1/bus/VL1.B1.CN1/va_deg");
        assert_eq!(branch_p_key("S2/l7"), "meas/S2/branch/l7/p_mw");
        assert_eq!(branch_q_key("S2/l7"), "meas/S2/branch/l7/q_mvar");
        assert_eq!(branch_i_key("S2/l7"), "meas/S2/branch/l7/i_ka");
        assert_eq!(branch_loading_key("S2/l7"), "meas/S2/branch/l7/loading");
        assert_eq!(breaker_state_key("S1/CB1"), "meas/S1/cb/CB1/closed");
        assert_eq!(source_p_key("S1/G1"), "meas/S1/src/G1/p_mw");
        assert_eq!(load_p_key("S1/LOAD2"), "meas/S1/load/LOAD2/p_mw");
        assert_eq!(breaker_cmd_key("S1/CB1"), "cmd/S1/cb/CB1/close");
        assert_eq!(load_cmd_key("S1/LOAD2"), "cmd/S1/load/LOAD2/p_mw");
        assert_eq!(gen_cmd_key("S1/G1"), "cmd/S1/gen/G1/p_mw");
        assert_eq!(breaker_state_key("CB1"), "meas/sys/cb/CB1/closed");
        assert_eq!(breaker_state_key("/CB1"), "meas//cb/CB1/closed");
    }
}
