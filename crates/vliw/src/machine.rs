//! Machine configuration — the reproduction's substitute for the paper's
//! Table 2 (whose contents were lost in the available text). All four
//! alias-detection schemes run on the *same* machine model so that the
//! relative comparisons of the evaluation are preserved.

/// Parameters of the in-order VLIW machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineConfig {
    /// Maximum operations per bundle.
    pub issue_width: u32,
    /// Memory slots per bundle.
    pub mem_slots: u32,
    /// Floating-point slots per bundle.
    pub fpu_slots: u32,
    /// Integer/branch slots per bundle (ALU class; branches share them).
    pub alu_slots: u32,
    /// Integer ALU latency (cycles).
    pub lat_int: u32,
    /// Integer multiply latency.
    pub lat_mul: u32,
    /// Integer divide latency.
    pub lat_div: u32,
    /// Load-use latency, the same for every access.
    pub lat_load: u32,
    /// FP add/sub/mul latency.
    pub lat_fpu: u32,
    /// FP divide latency.
    pub lat_fdiv: u32,
    /// Hardware alias register count (the paper's machine has 64).
    pub num_alias_regs: u32,
    /// Cycles charged for creating an atomic-region checkpoint.
    pub checkpoint_cycles: u64,
    /// Cycles charged for rolling back an atomic region.
    pub rollback_cycles: u64,
    /// Cycles a pure interpreter spends per guest instruction (used when
    /// execution falls back to interpretation).
    pub interp_cycles_per_instr: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            issue_width: 8,
            mem_slots: 2,
            fpu_slots: 2,
            alu_slots: 4,
            lat_int: 1,
            lat_mul: 3,
            lat_div: 12,
            lat_load: 4,
            lat_fpu: 4,
            lat_fdiv: 16,
            num_alias_regs: 64,
            checkpoint_cycles: 1,
            rollback_cycles: 100,
            interp_cycles_per_instr: 20,
        }
    }
}

impl MachineConfig {
    /// The default machine with a different alias register count.
    pub fn with_alias_regs(num_alias_regs: u32) -> Self {
        MachineConfig {
            num_alias_regs,
            ..Self::default()
        }
    }

    /// Latency of an FP operation.
    pub fn fpu_latency(&self, op: smarq_guest::FpuOp) -> u32 {
        match op {
            smarq_guest::FpuOp::Div => self.lat_fdiv,
            _ => self.lat_fpu,
        }
    }

    /// Latency of an integer ALU operation.
    pub fn alu_latency(&self, op: smarq_guest::AluOp) -> u32 {
        match op {
            smarq_guest::AluOp::Mul => self.lat_mul,
            smarq_guest::AluOp::Div => self.lat_div,
            _ => self.lat_int,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::{AluOp, FpuOp};

    #[test]
    fn defaults_are_consistent() {
        let m = MachineConfig::default();
        assert_eq!(m.mem_slots + m.fpu_slots + m.alu_slots, m.issue_width);
        assert_eq!(m.num_alias_regs, 64);
    }

    #[test]
    fn with_alias_regs_overrides_only_that() {
        let m = MachineConfig::with_alias_regs(16);
        assert_eq!(m.num_alias_regs, 16);
        assert_eq!(m.issue_width, MachineConfig::default().issue_width);
    }

    #[test]
    fn latencies() {
        let m = MachineConfig::default();
        assert_eq!(m.alu_latency(AluOp::Add), 1);
        assert_eq!(m.alu_latency(AluOp::Mul), 3);
        assert_eq!(m.alu_latency(AluOp::Div), 12);
        assert_eq!(m.fpu_latency(FpuOp::Add), 4);
        assert_eq!(m.fpu_latency(FpuOp::Div), 16);
    }
}
