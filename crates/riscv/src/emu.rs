//! Functional RV32I(M) emulator over a flat little-endian memory.
//!
//! The emulator executes an assembled [`Image`] in-order
//! (fetch/decode/execute) and streams every *retired* instruction as a
//! [`trace_isa::MicroOp`]: loads and stores carry their real effective
//! address and size, conditional branches their resolved outcome, and
//! everything else maps onto the compute classes of the timing model
//! (`mul*` → `IntMul`, `div*`/`rem*` → `IntDiv`, the rest → `IntAlu`).
//! Source-operand dependencies become producer distances via
//! per-register last-writer tracking, so the out-of-order pipeline sees
//! the program's true dataflow.
//!
//! Execution halts at `ecall` (the repo's halt convention; `a0` holds the
//! program's result) or `ebreak`. Anything outside the emulator's
//! contract — misaligned access, out-of-bounds access, a store into the
//! text section, an illegal instruction, or running past the step cap —
//! is an [`EmuError`], never a silent wrap or a panic.

use std::fmt;

use trace_isa::{fingerprint128, MicroOp, OpClass};

use crate::asm::{Image, DATA_BASE, MEM_SIZE, TEXT_BASE};
use crate::isa::{decode, AluImmOp, AluOp, Instr, LoadKind};

/// Default cap on retired instructions (guards accidental infinite loops
/// in fuzzed or hand-written programs).
pub const DEFAULT_STEP_CAP: u64 = 20_000_000;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// `ecall` — the normal exit.
    Ecall,
    /// `ebreak` — also halts, kept distinguishable for tests.
    Ebreak,
}

/// A runtime error: the program left the emulator's contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// PC left the text section or lost 4-byte alignment.
    BadPc { pc: u32 },
    /// Instruction word failed to decode.
    Illegal { pc: u32, word: u32 },
    /// Load/store address not naturally aligned for its size.
    Misaligned { pc: u32, addr: u32, size: u8 },
    /// Load/store outside the flat memory.
    OutOfBounds { pc: u32, addr: u32, size: u8 },
    /// Store into the (read-only) text section.
    TextWrite { pc: u32, addr: u32 },
    /// Retired-instruction cap hit (probable infinite loop).
    StepCap { cap: u64 },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EmuError::BadPc { pc } => write!(f, "pc {pc:#010x} outside the text section"),
            EmuError::Illegal { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#010x}")
            }
            EmuError::Misaligned { pc, addr, size } => write!(
                f,
                "misaligned {size}-byte access to {addr:#010x} at pc {pc:#010x}"
            ),
            EmuError::OutOfBounds { pc, addr, size } => write!(
                f,
                "out-of-bounds {size}-byte access to {addr:#010x} at pc {pc:#010x}"
            ),
            EmuError::TextWrite { pc, addr } => {
                write!(f, "store into text section at {addr:#010x} (pc {pc:#010x})")
            }
            EmuError::StepCap { cap } => {
                write!(f, "program did not halt within {cap} retired instructions")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Final architectural state after a run: what the [`crate::ArchOracle`]
/// compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Register file at halt (`x0` always 0).
    pub regs: [u32; 32],
    /// PC of the halting instruction.
    pub pc: u32,
    /// Retired instruction count (including the halting `ecall`).
    pub retired: u64,
    /// FNV-1a/128 digest of the full flat memory at halt.
    pub mem_digest: u128,
}

/// A completed execution: the retired-op stream plus the final state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecRecord {
    /// One [`MicroOp`] per retired instruction, in program order.
    pub ops: Vec<MicroOp>,
    /// Architectural state at halt.
    pub state: ArchState,
    /// How the program halted.
    pub halt: Halt,
}

impl ExecRecord {
    /// Content digest of the retired-op stream (pc, class, deps and
    /// payload of every op).
    pub fn ops_digest(&self) -> u128 {
        let mut bytes = Vec::with_capacity(self.ops.len() * 26);
        for op in &self.ops {
            bytes.extend_from_slice(&op.pc.to_le_bytes());
            bytes.push(op.class as u8);
            bytes.extend_from_slice(&op.deps[0].to_le_bytes());
            bytes.extend_from_slice(&op.deps[1].to_le_bytes());
            match (op.mem(), op.branch_info()) {
                (Some(m), _) => {
                    bytes.extend_from_slice(&m.addr.to_le_bytes());
                    bytes.push(m.size);
                }
                (_, Some(b)) => {
                    bytes.extend_from_slice(&b.target.to_le_bytes());
                    bytes.push(b.taken as u8);
                }
                _ => bytes.push(0xff),
            }
        }
        fingerprint128(&bytes)
    }
}

/// The emulator: an [`Image`] plus the architectural state being stepped.
pub struct Emulator {
    text: Vec<Instr>,
    mem: Vec<u8>,
    regs: [u32; 32],
    pc: u32,
    retired: u64,
    /// Dynamic index of the last writer of each register (for producer
    /// distances); `u64::MAX` = never written.
    last_writer: [u64; 32],
}

impl Emulator {
    /// Load `image`: predecode the text section (stores into text are
    /// forbidden, so decoding once is sound), copy text + data into the
    /// flat memory, point `sp` at the top.
    ///
    /// Fails if any text word does not decode or the image does not fit.
    pub fn new(image: &Image) -> Result<Self, EmuError> {
        let mut text = Vec::with_capacity(image.text.len());
        for (i, &word) in image.text.iter().enumerate() {
            let pc = TEXT_BASE + 4 * i as u32;
            text.push(decode(word).map_err(|_| EmuError::Illegal { pc, word })?);
        }
        if image.text_end() > DATA_BASE || DATA_BASE as usize + image.data.len() > MEM_SIZE as usize
        {
            return Err(EmuError::OutOfBounds {
                pc: 0,
                addr: DATA_BASE + image.data.len() as u32,
                size: 1,
            });
        }
        let mut mem = vec![0u8; MEM_SIZE as usize];
        for (i, &word) in image.text.iter().enumerate() {
            mem[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        mem[DATA_BASE as usize..DATA_BASE as usize + image.data.len()].copy_from_slice(&image.data);
        let mut regs = [0u32; 32];
        regs[2] = MEM_SIZE; // sp
        Ok(Emulator {
            text,
            mem,
            regs,
            pc: TEXT_BASE,
            retired: 0,
            last_writer: [u64::MAX; 32],
        })
    }

    /// Current architectural state (digesting all of memory; untouched,
    /// all-zero memory costs almost nothing to digest).
    pub fn state(&self) -> ArchState {
        ArchState {
            regs: self.regs,
            pc: self.pc,
            retired: self.retired,
            mem_digest: fingerprint128(&self.mem),
        }
    }

    /// Read a register (x0 reads as 0).
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[r as usize]
    }

    fn dep_of(&self, r: u8) -> u32 {
        if r == 0 {
            return 0;
        }
        match self.last_writer[r as usize] {
            u64::MAX => 0,
            w => u32::try_from(self.retired - w).unwrap_or(0),
        }
    }

    fn write_reg(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
            // `retired` has not been bumped yet for the current
            // instruction, so this index is the op being retired.
            self.last_writer[r as usize] = self.retired;
        }
    }

    fn load(&self, pc: u32, addr: u32, size: u8) -> Result<u32, EmuError> {
        check_access(pc, addr, size)?;
        let a = addr as usize;
        Ok(match size {
            1 => self.mem[a] as u32,
            2 => u16::from_le_bytes([self.mem[a], self.mem[a + 1]]) as u32,
            _ => u32::from_le_bytes([
                self.mem[a],
                self.mem[a + 1],
                self.mem[a + 2],
                self.mem[a + 3],
            ]),
        })
    }

    fn store(&mut self, pc: u32, addr: u32, size: u8, value: u32) -> Result<(), EmuError> {
        check_access(pc, addr, size)?;
        if addr < DATA_BASE {
            return Err(EmuError::TextWrite { pc, addr });
        }
        let a = addr as usize;
        let bytes = value.to_le_bytes();
        self.mem[a..a + size as usize].copy_from_slice(&bytes[..size as usize]);
        Ok(())
    }

    /// Execute one instruction. Returns the retired micro-op plus the
    /// halt cause if this instruction was an `ecall`/`ebreak`.
    pub fn step(&mut self) -> Result<(MicroOp, Option<Halt>), EmuError> {
        let pc = self.pc;
        if !pc.is_multiple_of(4) || (pc / 4) as usize >= self.text.len() {
            return Err(EmuError::BadPc { pc });
        }
        let instr = self.text[(pc / 4) as usize];
        let op_pc = pc as u64;
        let mut next_pc = pc.wrapping_add(4);
        let mut halt = None;
        let op = match instr {
            Instr::Lui { rd, imm20 } => {
                let d = [0, 0];
                self.write_reg(rd, imm20 << 12);
                MicroOp::alu(op_pc, d)
            }
            Instr::Auipc { rd, imm20 } => {
                let d = [0, 0];
                self.write_reg(rd, pc.wrapping_add(imm20 << 12));
                MicroOp::alu(op_pc, d)
            }
            Instr::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u32);
                self.write_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                MicroOp::jump(op_pc, target as u64)
            }
            Instr::Jalr { rd, rs1, offset } => {
                let d = [self.dep_of(rs1), 0];
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.write_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                MicroOp {
                    pc: op_pc,
                    class: OpClass::UncondBranch,
                    deps: d,
                    payload: trace_isa::Payload::Branch(trace_isa::BranchInfo {
                        taken: true,
                        target: target as u64,
                    }),
                }
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let d = [self.dep_of(rs1), self.dep_of(rs2)];
                let taken = cond.holds(self.reg(rs1), self.reg(rs2));
                let target = pc.wrapping_add(offset as u32);
                if taken {
                    next_pc = target;
                }
                MicroOp::branch(op_pc, taken, target as u64, d)
            }
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let d = [self.dep_of(rs1), 0];
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let raw = self.load(pc, addr, kind.size())?;
                let value = match kind {
                    LoadKind::B => raw as u8 as i8 as i32 as u32,
                    LoadKind::H => raw as u16 as i16 as i32 as u32,
                    LoadKind::W | LoadKind::Bu | LoadKind::Hu => raw,
                };
                self.write_reg(rd, value);
                MicroOp::load(op_pc, addr as u64, kind.size(), d)
            }
            Instr::Store {
                kind,
                rs2,
                rs1,
                offset,
            } => {
                let d = [self.dep_of(rs1), self.dep_of(rs2)];
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                self.store(pc, addr, kind.size(), self.reg(rs2))?;
                MicroOp::store(op_pc, addr as u64, kind.size(), d)
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let d = [self.dep_of(rs1), 0];
                let a = self.reg(rs1);
                let v = eval_alu_imm(op, a, imm);
                self.write_reg(rd, v);
                MicroOp::alu(op_pc, d)
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let d = [self.dep_of(rs1), self.dep_of(rs2)];
                let v = eval_alu(op, self.reg(rs1), self.reg(rs2));
                self.write_reg(rd, v);
                let class = match op {
                    AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => OpClass::IntMul,
                    AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => OpClass::IntDiv,
                    _ => OpClass::IntAlu,
                };
                MicroOp::compute(op_pc, class, d)
            }
            Instr::Fence => MicroOp::alu(op_pc, [0, 0]),
            Instr::Ecall => {
                halt = Some(Halt::Ecall);
                MicroOp::alu(op_pc, [self.dep_of(10), self.dep_of(17)])
            }
            Instr::Ebreak => {
                halt = Some(Halt::Ebreak);
                MicroOp::alu(op_pc, [0, 0])
            }
        };
        self.retired += 1;
        if halt.is_none() {
            self.pc = next_pc;
        }
        Ok((op, halt))
    }

    /// Run to `ecall`/`ebreak` (or the step cap), collecting the retired
    /// op stream.
    pub fn run_to_halt(mut self, cap: u64) -> Result<ExecRecord, EmuError> {
        let mut ops = Vec::new();
        loop {
            if self.retired >= cap {
                return Err(EmuError::StepCap { cap });
            }
            let (op, halt) = self.step()?;
            debug_assert!(op.is_well_formed());
            ops.push(op);
            if let Some(h) = halt {
                return Ok(ExecRecord {
                    ops,
                    state: self.state(),
                    halt: h,
                });
            }
        }
    }
}

fn check_access(pc: u32, addr: u32, size: u8) -> Result<(), EmuError> {
    if !addr.is_multiple_of(size as u32) {
        return Err(EmuError::Misaligned { pc, addr, size });
    }
    if addr as u64 + size as u64 > MEM_SIZE as u64 {
        return Err(EmuError::OutOfBounds { pc, addr, size });
    }
    Ok(())
}

fn eval_alu_imm(op: AluImmOp, a: u32, imm: i32) -> u32 {
    let b = imm as u32;
    match op {
        AluImmOp::Addi => a.wrapping_add(b),
        AluImmOp::Slti => ((a as i32) < imm) as u32,
        AluImmOp::Sltiu => (a < b) as u32,
        AluImmOp::Xori => a ^ b,
        AluImmOp::Ori => a | b,
        AluImmOp::Andi => a & b,
        AluImmOp::Slli => a << (b & 0x1f),
        AluImmOp::Srli => a >> (b & 0x1f),
        AluImmOp::Srai => ((a as i32) >> (b & 0x1f)) as u32,
    }
}

fn eval_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 0x1f),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 0x1f),
        AluOp::Sra => ((a as i32) >> (b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => ((a as i32 as i64).wrapping_mul(b as i32 as i64) >> 32) as u32,
        AluOp::Mulhsu => ((a as i32 as i64).wrapping_mul(b as i64) >> 32) as u32,
        AluOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
        // RISC-V division never traps: /0 and overflow have defined
        // results (spec §7.2).
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else {
                (a as i32).wrapping_div(b as i32) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                (a as i32).wrapping_rem(b as i32) as u32
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> ExecRecord {
        let img = assemble("t.s", src).unwrap();
        Emulator::new(&img).unwrap().run_to_halt(100_000).unwrap()
    }

    #[test]
    fn arithmetic_and_halt() {
        let r = run("  li a0, 6\n  li a1, 7\n  mul a0, a0, a1\n  ecall\n");
        assert_eq!(r.state.regs[10], 42);
        assert_eq!(r.halt, Halt::Ecall);
        assert_eq!(r.state.retired, 4);
        assert_eq!(r.ops.len(), 4);
        assert_eq!(r.ops[2].class, OpClass::IntMul);
    }

    #[test]
    fn loop_retires_branches_with_outcomes() {
        let r = run("  li t0, 3\nloop:\n  addi t0, t0, -1\n  bnez t0, loop\n  ecall\n");
        // 1 li + 3×(addi+bnez) + ecall
        assert_eq!(r.state.retired, 8);
        let branches: Vec<_> = r
            .ops
            .iter()
            .filter_map(|o| o.branch_info().map(|b| b.taken))
            .collect();
        assert_eq!(branches, vec![true, true, false]);
    }

    #[test]
    fn loads_and_stores_carry_real_addresses() {
        let r = run(
            ".data\nbuf: .word 17, 0\n.text\n  la t0, buf\n  lw t1, (t0)\n  addi t1, t1, 1\n  sw t1, 4(t0)\n  ecall\n",
        );
        let load = r.ops.iter().find(|o| o.class.is_load()).unwrap();
        assert_eq!(load.mem().unwrap().addr, DATA_BASE as u64);
        let store = r.ops.iter().find(|o| o.class.is_store()).unwrap();
        assert_eq!(store.mem().unwrap().addr, DATA_BASE as u64 + 4);
        assert_eq!(r.state.regs[6], 18);
    }

    #[test]
    fn producer_distances_follow_the_dataflow() {
        let r = run("  li t0, 1\n  li t1, 2\n  add t2, t0, t1\n  ecall\n");
        // `add` depends on op 2-back (t0) and 1-back (t1).
        assert_eq!(r.ops[2].deps, [2, 1]);
    }

    #[test]
    fn division_edge_cases_match_the_spec() {
        assert_eq!(eval_alu(AluOp::Div, 7, 0), u32::MAX);
        assert_eq!(eval_alu(AluOp::Rem, 7, 0), 7);
        assert_eq!(
            eval_alu(AluOp::Div, i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
        assert_eq!(eval_alu(AluOp::Rem, i32::MIN as u32, -1i32 as u32), 0);
        assert_eq!(eval_alu(AluOp::Divu, 7, 0), u32::MAX);
        assert_eq!(eval_alu(AluOp::Remu, 7, 0), 7);
    }

    #[test]
    fn sign_extension_on_narrow_loads() {
        let r = run(
            ".data\nb: .byte 0xff\n.align 2\nh: .half 0x8000\n.text\n  la t0, b\n  lb t1, (t0)\n  lbu t2, (t0)\n  la t0, h\n  lh t3, (t0)\n  lhu t4, (t0)\n  ecall\n",
        );
        assert_eq!(r.state.regs[6], 0xffff_ffff);
        assert_eq!(r.state.regs[7], 0xff);
        assert_eq!(r.state.regs[28], 0xffff_8000);
        assert_eq!(r.state.regs[29], 0x8000);
    }

    #[test]
    fn contract_violations_are_errors() {
        let img = assemble("t.s", "  li t0, 1\n  lw t1, 2(t0)\n  ecall\n").unwrap();
        let e = Emulator::new(&img).unwrap().run_to_halt(100).unwrap_err();
        assert!(matches!(e, EmuError::Misaligned { size: 4, .. }), "{e}");

        let img = assemble("t.s", "  li t0, 0x100000\n  lw t1, (t0)\n  ecall\n").unwrap();
        let e = Emulator::new(&img).unwrap().run_to_halt(100).unwrap_err();
        assert!(matches!(e, EmuError::OutOfBounds { .. }), "{e}");

        let img = assemble("t.s", "  sw x0, 0(x0)\n  ecall\n").unwrap();
        let e = Emulator::new(&img).unwrap().run_to_halt(100).unwrap_err();
        assert!(matches!(e, EmuError::TextWrite { .. }), "{e}");

        let img = assemble("t.s", "loop: j loop\n  ecall\n").unwrap();
        let e = Emulator::new(&img).unwrap().run_to_halt(100).unwrap_err();
        assert_eq!(e, EmuError::StepCap { cap: 100 });

        // Falling off the end of the text section.
        let img = assemble("t.s", "  nop\n").unwrap();
        let e = Emulator::new(&img).unwrap().run_to_halt(100).unwrap_err();
        assert_eq!(e, EmuError::BadPc { pc: 4 });
    }

    #[test]
    fn every_op_is_well_formed_and_x0_stays_zero() {
        let r = run("  addi x0, x0, 5\n  li t0, 3\n  sub x0, x0, t0\n  ecall\n");
        assert!(r.ops.iter().all(|o| o.is_well_formed()));
        assert_eq!(r.state.regs[0], 0);
    }
}
