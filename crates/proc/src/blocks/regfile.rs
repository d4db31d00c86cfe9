//! RF — the register file block.

use wp_core::{PortSet, Process};

use crate::isa::{Reg, NUM_REGS};
use crate::msg::Msg;

/// Input port fed by the control unit (register commands).
pub const IN_CU: usize = 0;
/// Input port fed by the ALU (write-backs).
pub const IN_ALU: usize = 1;
/// Input port fed by the data memory (load write-backs).
pub const IN_DC: usize = 2;
/// Output port towards the ALU (operands).
pub const OUT_ALU: usize = 0;
/// Output port towards the data memory (store data).
pub const OUT_DC: usize = 1;

/// Firings from a command to its ALU write-back.
const ALU_WB_DELAY: u32 = 2;
/// Firings from a command to its load write-back.
const LOAD_WB_DELAY: u32 = 3;

/// The register file.
///
/// Its communication profile is the interesting one for the paper's oracle:
/// the CU command port is needed every firing, but the ALU and DC write-back
/// ports are needed only at the firings where the control unit announced a
/// write-back (two, respectively three, firings after the command).  Those
/// firing indices are tracked in small schedules, which is exactly the
/// "minimal knowledge of the IP's communication profile" the paper asks for.
///
/// Each schedule is a shift register over the next firings: bit `k` means
/// "due `k` firings from now".  A command announces by setting bit 2 (ALU)
/// or 3 (load), a firing tests bit 0, and every firing shifts right once, so
/// the oracle and the firing are constant-time and allocation-free.
#[derive(Debug, Clone)]
pub struct RegFile {
    regs: [i64; NUM_REGS],
    alu_wb_due: u8,
    load_wb_due: u8,
    out_operands: Msg,
    out_store: Msg,
    writebacks: u64,
}

impl RegFile {
    /// Creates a register file with every register cleared.
    pub fn new() -> Self {
        Self {
            regs: [0; NUM_REGS],
            alu_wb_due: 0,
            load_wb_due: 0,
            out_operands: Msg::Bubble,
            out_store: Msg::Bubble,
            writebacks: 0,
        }
    }

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> i64 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Number of write-backs (ALU and load) applied so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    fn set_reg(&mut self, r: Reg, value: i64) {
        if r != 0 {
            self.regs[r as usize] = value;
        }
        self.writebacks += 1;
    }
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl Process<Msg> for RegFile {
    fn name(&self) -> &str {
        "RF"
    }

    fn num_inputs(&self) -> usize {
        3
    }

    fn num_outputs(&self) -> usize {
        2
    }

    fn output(&self, port: usize) -> Msg {
        match port {
            OUT_ALU => self.out_operands,
            OUT_DC => self.out_store,
            other => panic!("register file has no output port {other}"),
        }
    }

    fn required_inputs(&self) -> PortSet {
        let mut set = PortSet::single(IN_CU);
        if self.alu_wb_due & 1 == 1 {
            set.insert(IN_ALU);
        }
        if self.load_wb_due & 1 == 1 {
            set.insert(IN_DC);
        }
        set
    }

    fn fire(&mut self, inputs: &[Option<Msg>]) {
        // Write-backs are applied before the command is served so that an
        // instruction issued in the same firing observes the freshest values.
        if self.alu_wb_due & 1 == 1 {
            if let Some(Msg::Writeback { reg, value }) = inputs[IN_ALU] {
                self.set_reg(reg, value);
            }
        }
        if self.load_wb_due & 1 == 1 {
            if let Some(Msg::LoadData { reg, value }) = inputs[IN_DC] {
                self.set_reg(reg, value);
            }
        }

        match inputs[IN_CU] {
            Some(Msg::RegCmd(cmd)) => {
                self.out_operands = Msg::Operands {
                    a: self.reg(cmd.rs1),
                    b: self.reg(cmd.rs2),
                };
                self.out_store = match cmd.store_reg {
                    Some(sr) => Msg::StoreData {
                        value: self.reg(sr),
                    },
                    None => Msg::Bubble,
                };
                if cmd.expect_alu_wb {
                    self.alu_wb_due |= 1 << ALU_WB_DELAY;
                }
                if cmd.expect_load_wb {
                    self.load_wb_due |= 1 << LOAD_WB_DELAY;
                }
            }
            _ => {
                self.out_operands = Msg::Bubble;
                self.out_store = Msg::Bubble;
            }
        }
        self.alu_wb_due >>= 1;
        self.load_wb_due >>= 1;
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RegCmd;

    fn cmd(rs1: Reg, rs2: Reg) -> Msg {
        Msg::RegCmd(RegCmd {
            rs1,
            rs2,
            store_reg: None,
            expect_alu_wb: false,
            expect_load_wb: false,
        })
    }

    #[test]
    fn reads_registers_on_command() {
        let mut rf = RegFile::new();
        rf.regs[3] = 30;
        rf.regs[4] = 40;
        rf.fire(&[Some(cmd(3, 4)), None, None]);
        assert_eq!(rf.output(OUT_ALU), Msg::Operands { a: 30, b: 40 });
        assert_eq!(rf.output(OUT_DC), Msg::Bubble);
    }

    #[test]
    fn r0_reads_as_zero() {
        let mut rf = RegFile::new();
        rf.regs[0] = 99; // should never happen, but reads must still be 0
        rf.fire(&[Some(cmd(0, 0)), None, None]);
        assert_eq!(rf.output(OUT_ALU), Msg::Operands { a: 0, b: 0 });
    }

    #[test]
    fn store_data_is_driven_when_requested() {
        let mut rf = RegFile::new();
        rf.regs[5] = 55;
        rf.fire(&[
            Some(Msg::RegCmd(RegCmd {
                rs1: 1,
                rs2: 2,
                store_reg: Some(5),
                ..RegCmd::default()
            })),
            None,
            None,
        ]);
        assert_eq!(rf.output(OUT_DC), Msg::StoreData { value: 55 });
    }

    #[test]
    fn alu_writeback_arrives_two_firings_after_the_command() {
        let mut rf = RegFile::new();
        // Firing 0: command announcing an ALU write-back.
        rf.fire(&[
            Some(Msg::RegCmd(RegCmd {
                rs1: 1,
                rs2: 2,
                expect_alu_wb: true,
                ..RegCmd::default()
            })),
            None,
            None,
        ]);
        // Firing 1: not yet due.
        assert!(!rf.required_inputs().contains(IN_ALU));
        rf.fire(&[Some(Msg::Bubble), None, None]);
        // Firing 2: due now.
        assert!(rf.required_inputs().contains(IN_ALU));
        rf.fire(&[
            Some(Msg::Bubble),
            Some(Msg::Writeback { reg: 7, value: 70 }),
            None,
        ]);
        assert_eq!(rf.reg(7), 70);
        assert_eq!(rf.writebacks(), 1);
    }

    #[test]
    fn load_writeback_arrives_three_firings_after_the_command() {
        let mut rf = RegFile::new();
        rf.fire(&[
            Some(Msg::RegCmd(RegCmd {
                rs1: 1,
                rs2: 2,
                expect_load_wb: true,
                ..RegCmd::default()
            })),
            None,
            None,
        ]);
        for _ in 0..2 {
            assert!(!rf.required_inputs().contains(IN_DC));
            rf.fire(&[Some(Msg::Bubble), None, None]);
        }
        assert!(rf.required_inputs().contains(IN_DC));
        rf.fire(&[
            Some(Msg::Bubble),
            None,
            Some(Msg::LoadData { reg: 9, value: -3 }),
        ]);
        assert_eq!(rf.reg(9), -3);
    }

    #[test]
    fn writeback_applies_before_read_in_the_same_firing() {
        let mut rf = RegFile::new();
        rf.fire(&[
            Some(Msg::RegCmd(RegCmd {
                rs1: 1,
                rs2: 2,
                expect_alu_wb: true,
                ..RegCmd::default()
            })),
            None,
            None,
        ]);
        rf.fire(&[Some(Msg::Bubble), None, None]);
        // Firing 2: the write-back to r1 arrives together with a command that
        // reads r1 — the read must observe the new value.
        rf.fire(&[
            Some(cmd(1, 0)),
            Some(Msg::Writeback { reg: 1, value: 11 }),
            None,
        ]);
        assert_eq!(rf.output(OUT_ALU), Msg::Operands { a: 11, b: 0 });
    }

    #[test]
    fn overlapping_writebacks_are_required_at_exactly_k_plus_two_and_three() {
        let announce = |alu, load| {
            Msg::RegCmd(RegCmd {
                rs1: 1,
                rs2: 2,
                expect_alu_wb: alu,
                expect_load_wb: load,
                ..RegCmd::default()
            })
        };
        // Firing 0 announces an ALU write-back (due at 2) and a load (due
        // at 3); firing 1 announces both again (due at 3 and 4).
        let commands = [announce(true, true), announce(true, true)];
        let mut rf = RegFile::new();
        let mut required = Vec::new();
        for k in 0..7 {
            let need = rf.required_inputs();
            required.push((need.contains(IN_ALU), need.contains(IN_DC)));
            let cu = commands.get(k).copied().unwrap_or(Msg::Bubble);
            let alu = need.contains(IN_ALU).then_some(Msg::Writeback {
                reg: 3,
                value: 30 + k as i64,
            });
            let dc = need.contains(IN_DC).then_some(Msg::LoadData {
                reg: 4,
                value: 40 + k as i64,
            });
            rf.fire(&[Some(cu), alu, dc]);
        }
        assert_eq!(
            required,
            [
                (false, false),
                (false, false),
                (true, false),
                (true, true),
                (false, true),
                (false, false),
                (false, false),
            ]
        );
        // Every announced write-back was applied at its firing, the last of
        // each kind winning.
        assert_eq!(rf.writebacks(), 4);
        assert_eq!((rf.reg(3), rf.reg(4)), (33, 44));
    }

    #[test]
    fn only_the_command_port_is_required_by_default() {
        let rf = RegFile::new();
        assert_eq!(rf.required_inputs(), PortSet::single(IN_CU));
    }

    #[test]
    fn reset_clears_everything() {
        let mut rf = RegFile::new();
        rf.fire(&[
            Some(Msg::RegCmd(RegCmd {
                rs1: 1,
                rs2: 2,
                expect_alu_wb: true,
                ..RegCmd::default()
            })),
            None,
            None,
        ]);
        rf.reset();
        assert_eq!(rf.reg(1), 0);
        assert_eq!(rf.required_inputs(), PortSet::single(IN_CU));
        assert_eq!(rf.output(OUT_ALU), Msg::Bubble);
    }
}
