//! IEEE 1149.1 (JTAG / boundary-scan) test access port.
//!
//! The paper programs the DLC's FLASH "from a personal computer through an
//! IEEE 1149.1 (boundary scan) interface" via a MultiLink adaptor. This
//! module implements the full 16-state TAP controller, IDCODE readout, and
//! the flash-programming instruction sequence the host uses.

use core::fmt;

use crate::flash::{Bitstream, FlashMemory};
use crate::{DlcError, Result};

/// The sixteen states of the IEEE 1149.1 TAP controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TapState {
    TestLogicReset,
    RunTestIdle,
    SelectDrScan,
    CaptureDr,
    ShiftDr,
    Exit1Dr,
    PauseDr,
    Exit2Dr,
    UpdateDr,
    SelectIrScan,
    CaptureIr,
    ShiftIr,
    Exit1Ir,
    PauseIr,
    Exit2Ir,
    UpdateIr,
}

impl TapState {
    /// The next state given TMS at a TCK rising edge (the 1149.1 state
    /// transition table, verbatim).
    pub fn next(self, tms: bool) -> TapState {
        use TapState::*;
        match (self, tms) {
            (TestLogicReset, false) => RunTestIdle,
            (TestLogicReset, true) => TestLogicReset,
            (RunTestIdle, false) => RunTestIdle,
            (RunTestIdle, true) => SelectDrScan,
            (SelectDrScan, false) => CaptureDr,
            (SelectDrScan, true) => SelectIrScan,
            (CaptureDr, false) => ShiftDr,
            (CaptureDr, true) => Exit1Dr,
            (ShiftDr, false) => ShiftDr,
            (ShiftDr, true) => Exit1Dr,
            (Exit1Dr, false) => PauseDr,
            (Exit1Dr, true) => UpdateDr,
            (PauseDr, false) => PauseDr,
            (PauseDr, true) => Exit2Dr,
            (Exit2Dr, false) => ShiftDr,
            (Exit2Dr, true) => UpdateDr,
            (UpdateDr, false) => RunTestIdle,
            (UpdateDr, true) => SelectDrScan,
            (SelectIrScan, false) => CaptureIr,
            (SelectIrScan, true) => TestLogicReset,
            (CaptureIr, false) => ShiftIr,
            (CaptureIr, true) => Exit1Ir,
            (ShiftIr, false) => ShiftIr,
            (ShiftIr, true) => Exit1Ir,
            (Exit1Ir, false) => PauseIr,
            (Exit1Ir, true) => UpdateIr,
            (PauseIr, false) => PauseIr,
            (PauseIr, true) => Exit2Ir,
            (Exit2Ir, false) => ShiftIr,
            (Exit2Ir, true) => UpdateIr,
            (UpdateIr, false) => RunTestIdle,
            (UpdateIr, true) => SelectDrScan,
        }
    }
}

impl fmt::Display for TapState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// JTAG instructions decoded by the DLC's TAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Mandatory BYPASS (all-ones IR).
    Bypass,
    /// Read the 32-bit device identification register.
    Idcode,
    /// Erase the configuration FLASH.
    FlashErase,
    /// Shift one 32-bit word into the FLASH write buffer and commit it.
    FlashProgram,
    /// Read back a FLASH word (address auto-increments).
    FlashVerify,
    /// Any unrecognized IR value.
    Unknown(u8),
}

impl Instruction {
    /// 8-bit IR encodings.
    pub fn encode(self) -> u8 {
        match self {
            Instruction::Bypass => 0xFF,
            Instruction::Idcode => 0x09,
            Instruction::FlashErase => 0xE0,
            Instruction::FlashProgram => 0xE1,
            Instruction::FlashVerify => 0xE2,
            Instruction::Unknown(v) => v,
        }
    }

    fn decode(v: u8) -> Instruction {
        match v {
            0xFF => Instruction::Bypass,
            0x09 => Instruction::Idcode,
            0xE0 => Instruction::FlashErase,
            0xE1 => Instruction::FlashProgram,
            0xE2 => Instruction::FlashVerify,
            other => Instruction::Unknown(other),
        }
    }
}

/// The DLC's JTAG test access port, wired to its configuration FLASH.
///
/// Drive it at the pin level with [`clock`](JtagPort::clock) or use the
/// host-side convenience methods ([`read_idcode`](JtagPort::read_idcode),
/// [`program_flash`](JtagPort::program_flash)) that generate the pin
/// sequences for you — both paths go through the same TAP state machine.
///
/// # Examples
///
/// ```
/// use dlc::jtag::JtagPort;
///
/// let mut port = JtagPort::new(512);
/// assert_eq!(port.read_idcode(), dlc::flash::DEVICE_ID);
/// ```
#[derive(Debug, Clone)]
pub struct JtagPort {
    state: TapState,
    ir_shift: u64,
    ir_count: u32,
    instruction: Instruction,
    dr_shift: u64,
    dr_count: u32,
    idcode: u32,
    flash: FlashMemory,
    flash_addr: usize,
    tdo: bool,
}

impl JtagPort {
    /// Creates a TAP wired to a fresh (erased) FLASH of `flash_words`.
    pub fn new(flash_words: usize) -> Self {
        JtagPort {
            state: TapState::TestLogicReset,
            ir_shift: 0,
            ir_count: 0,
            instruction: Instruction::Idcode, // 1149.1: IDCODE after reset
            dr_shift: 0,
            dr_count: 0,
            idcode: crate::flash::DEVICE_ID,
            flash: FlashMemory::new(flash_words),
            flash_addr: 0,
            tdo: false,
        }
    }

    /// The current TAP state.
    pub fn state(&self) -> TapState {
        self.state
    }

    /// The currently latched instruction.
    pub fn instruction(&self) -> Instruction {
        self.instruction
    }

    /// Borrows the attached FLASH (e.g. to boot the FPGA from it).
    pub fn flash(&self) -> &FlashMemory {
        &self.flash
    }

    /// Mutable access to the attached FLASH (fault injection in tests).
    pub fn flash_mut(&mut self) -> &mut FlashMemory {
        &mut self.flash
    }

    /// One TCK rising edge with the given TMS/TDI pin values; returns TDO.
    pub fn clock(&mut self, tms: bool, tdi: bool) -> bool {
        use TapState::*;
        // TDO changes on the falling edge of TCK in real silicon; in this
        // cycle-level model we return the value shifted out by this edge.
        let next = self.state.next(tms);
        match self.state {
            CaptureIr => {
                // 1149.1 mandates capturing ...01 into the IR.
                self.ir_shift = 0b01;
                self.ir_count = 0;
            }
            ShiftIr => {
                self.tdo = self.ir_shift & 1 == 1;
                self.ir_shift = (self.ir_shift >> 1) | ((tdi as u64) << 7);
                self.ir_count += 1;
            }
            CaptureDr => {
                self.dr_shift = match self.instruction {
                    Instruction::Idcode => self.idcode as u64,
                    Instruction::FlashVerify => {
                        let w = self.flash.read_word(self.flash_addr).unwrap_or(0);
                        w as u64
                    }
                    _ => 0,
                };
                self.dr_count = 0;
            }
            ShiftDr => {
                self.tdo = self.dr_shift & 1 == 1;
                let width = match self.instruction {
                    Instruction::Bypass => 1,
                    _ => 32,
                };
                self.dr_shift = (self.dr_shift >> 1) | ((tdi as u64) << (width - 1));
                self.dr_count += 1;
            }
            _ => {}
        }
        match next {
            UpdateIr => {
                self.instruction = Instruction::decode((self.ir_shift & 0xFF) as u8);
                if self.instruction == Instruction::FlashErase {
                    self.flash.erase_all();
                    self.flash_addr = 0;
                }
                if matches!(self.instruction, Instruction::FlashProgram | Instruction::FlashVerify)
                {
                    self.flash_addr = 0;
                }
            }
            UpdateDr => {
                if self.instruction == Instruction::FlashProgram {
                    let word = (self.dr_shift & 0xFFFF_FFFF) as u32;
                    // NOR-program the word at the auto-incrementing address;
                    // a word shifted past the device end is dropped and the
                    // address stops there.
                    if self.flash.program_word(self.flash_addr, word).is_ok() {
                        self.flash_addr += 1;
                    }
                } else if self.instruction == Instruction::FlashVerify {
                    self.flash_addr += 1;
                }
            }
            TestLogicReset => {
                self.instruction = Instruction::Idcode;
            }
            _ => {}
        }
        self.state = next;
        self.tdo
    }

    /// Clocks five TMS=1 cycles: guaranteed Test-Logic-Reset from any state.
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.clock(true, false);
        }
    }

    /// Navigates from Run-Test/Idle (or reset) and latches `instruction`.
    pub fn load_instruction(&mut self, instruction: Instruction) {
        self.reset();
        self.clock(false, false); // -> RunTestIdle
        self.clock(true, false); // -> SelectDrScan
        self.clock(true, false); // -> SelectIrScan
        self.clock(false, false); // -> CaptureIr
        self.clock(false, false); // -> ShiftIr
        let code = instruction.encode();
        for i in 0..8 {
            let tdi = code & (1 << i) != 0;
            let tms = i == 7; // exit on last bit
            self.clock(tms, tdi);
        }
        self.clock(true, false); // Exit1Ir -> UpdateIr
        self.clock(false, false); // -> RunTestIdle
    }

    /// Shifts a `width`-bit data register value and returns what came out.
    ///
    /// Must be called from Run-Test/Idle (i.e. after
    /// [`load_instruction`](Self::load_instruction)).
    ///
    /// # Errors
    ///
    /// [`DlcError::JtagProtocol`] if not in Run-Test/Idle.
    pub fn shift_dr(&mut self, value: u64, width: u32) -> Result<u64> {
        if self.state != TapState::RunTestIdle {
            return Err(DlcError::JtagProtocol { reason: "shift_dr requires Run-Test/Idle" });
        }
        self.clock(true, false); // -> SelectDrScan
        self.clock(false, false); // -> CaptureDr
        self.clock(false, false); // -> ShiftDr
        let mut out = 0u64;
        for i in 0..width {
            let tdi = value & (1 << i) != 0;
            let tms = i == width - 1;
            let tdo = self.clock(tms, tdi);
            if tdo {
                out |= 1 << i;
            }
        }
        self.clock(true, false); // Exit1Dr -> UpdateDr
        self.clock(false, false); // -> RunTestIdle
        Ok(out)
    }

    /// Reads the 32-bit IDCODE the way a host tool does.
    pub fn read_idcode(&mut self) -> u32 {
        self.load_instruction(Instruction::Idcode);
        // xlint::allow(no-panic-in-lib, load_instruction always parks the TAP in Run-Test/Idle, the only state shift_dr rejects is absent here)
        self.shift_dr(0, 32).expect("TAP is in Run-Test/Idle after load_instruction") as u32
    }

    /// Erases the FLASH, programs `bitstream`, and verifies it word by
    /// word through the boundary-scan port — the paper's configuration
    /// flow.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if the readback does not match or the
    /// image does not fit.
    pub fn program_flash(&mut self, bitstream: &Bitstream) -> Result<()> {
        let words = bitstream.to_words();
        if words.len() > self.flash.capacity() {
            return Err(DlcError::InvalidBitstream { reason: "image exceeds flash capacity" });
        }
        self.load_instruction(Instruction::FlashErase);
        self.load_instruction(Instruction::FlashProgram);
        for w in &words {
            self.shift_dr(*w as u64, 32)?;
        }
        // Verify pass.
        self.load_instruction(Instruction::FlashVerify);
        for (i, w) in words.iter().enumerate() {
            let got = self.shift_dr(0, 32)? as u32;
            if got != *w {
                let _ = i;
                return Err(DlcError::InvalidBitstream { reason: "readback verify failed" });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_from_any_state() {
        let mut port = JtagPort::new(16);
        // Wander somewhere deep.
        for (tms, tdi) in [(false, false), (true, false), (false, true), (false, true)] {
            port.clock(tms, tdi);
        }
        port.reset();
        assert_eq!(port.state(), TapState::TestLogicReset);
        assert_eq!(port.instruction(), Instruction::Idcode);
    }

    #[test]
    fn state_table_spot_checks() {
        use TapState::*;
        assert_eq!(TestLogicReset.next(false), RunTestIdle);
        assert_eq!(RunTestIdle.next(true), SelectDrScan);
        assert_eq!(SelectDrScan.next(true), SelectIrScan);
        assert_eq!(SelectIrScan.next(true), TestLogicReset);
        assert_eq!(ShiftDr.next(false), ShiftDr);
        assert_eq!(Exit1Dr.next(true), UpdateDr);
        assert_eq!(PauseIr.next(true), Exit2Ir);
        assert_eq!(Exit2Ir.next(false), ShiftIr);
        assert_eq!(UpdateIr.next(false), RunTestIdle);
        assert_eq!(format!("{ShiftDr}"), "ShiftDr");
    }

    #[test]
    fn every_state_reaches_reset_in_five_tms_ones() {
        use TapState::*;
        for s in [
            TestLogicReset,
            RunTestIdle,
            SelectDrScan,
            CaptureDr,
            ShiftDr,
            Exit1Dr,
            PauseDr,
            Exit2Dr,
            UpdateDr,
            SelectIrScan,
            CaptureIr,
            ShiftIr,
            Exit1Ir,
            PauseIr,
            Exit2Ir,
            UpdateIr,
        ] {
            let mut state = s;
            for _ in 0..5 {
                state = state.next(true);
            }
            assert_eq!(state, TestLogicReset, "from {s:?}");
        }
    }

    #[test]
    fn idcode_reads_device_id() {
        let mut port = JtagPort::new(16);
        assert_eq!(port.read_idcode(), crate::flash::DEVICE_ID);
        // Repeatable.
        assert_eq!(port.read_idcode(), crate::flash::DEVICE_ID);
    }

    #[test]
    fn instruction_encoding_round_trip() {
        for insn in [
            Instruction::Bypass,
            Instruction::Idcode,
            Instruction::FlashErase,
            Instruction::FlashProgram,
            Instruction::FlashVerify,
        ] {
            assert_eq!(Instruction::decode(insn.encode()), insn);
        }
        assert_eq!(Instruction::decode(0x42), Instruction::Unknown(0x42));
    }

    #[test]
    fn shift_dr_requires_idle() {
        let mut port = JtagPort::new(16);
        port.reset();
        // In TestLogicReset, not RunTestIdle.
        assert!(matches!(port.shift_dr(0, 8), Err(DlcError::JtagProtocol { .. })));
    }

    #[test]
    fn bypass_is_single_bit_delay() {
        let mut port = JtagPort::new(16);
        port.load_instruction(Instruction::Bypass);
        // Shifting 8 bits through a 1-bit bypass returns the input delayed
        // by one bit.
        let out = port.shift_dr(0b1011_0101, 8).unwrap();
        assert_eq!(out & 0xFE, (0b1011_0101 << 1) & 0xFE);
    }

    #[test]
    fn full_flash_programming_flow() {
        let mut port = JtagPort::new(512);
        let bs = Bitstream::example_design();
        port.program_flash(&bs).unwrap();
        let loaded = port.flash().load_bitstream().unwrap();
        assert_eq!(loaded, bs);
    }

    #[test]
    fn reprogramming_replaces_the_design() {
        let mut port = JtagPort::new(512);
        port.program_flash(&Bitstream::example_design()).unwrap();
        let v2 = Bitstream::new(crate::flash::DEVICE_ID, (0..100).map(|i| i ^ 0xA5).collect());
        port.program_flash(&v2).unwrap();
        assert_eq!(port.flash().load_bitstream().unwrap(), v2);
    }

    #[test]
    fn oversized_image_rejected() {
        let mut port = JtagPort::new(8);
        let err = port.program_flash(&Bitstream::example_design()).unwrap_err();
        assert!(matches!(err, DlcError::InvalidBitstream { .. }));
    }

    #[test]
    fn verify_catches_flash_faults() {
        // Program normally, then corrupt and re-verify via FlashVerify DRs.
        let mut port = JtagPort::new(512);
        let bs = Bitstream::example_design();
        port.program_flash(&bs).unwrap();
        port.flash_mut().corrupt_bit(10, 3);
        port.load_instruction(Instruction::FlashVerify);
        let words = bs.to_words();
        let mut mismatch = false;
        for w in &words {
            let got = port.shift_dr(0, 32).unwrap() as u32;
            if got != *w {
                mismatch = true;
                break;
            }
        }
        assert!(mismatch, "corruption must be visible through verify");
    }
}
