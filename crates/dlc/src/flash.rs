//! FLASH configuration memory and FPGA bitstreams.
//!
//! §2 of the paper: "a FLASH memory \[stores\] the FPGA programming
//! information. The FLASH is programmed from a personal computer through an
//! IEEE 1149.1 (boundary scan) interface. Once programmed, it loads the
//! personalization data to the FPGA upon power-up. The program can be
//! changed by overwriting the FLASH."
//!
//! The [`Bitstream`] here is a simplified but structurally honest Virtex-II
//! style image: sync word, device ID, payload frames, and a CRC — enough to
//! exercise the real failure modes (blank flash, truncated image, bit rot
//! detected by CRC).

use core::fmt;

use crate::{DlcError, Result};

/// Sync word opening a valid bitstream (the Virtex-II value).
const SYNC_WORD: u32 = 0xAA99_5566;

/// Device ID the example DLC expects (stand-in for the XC2V1000 IDCODE).
pub const DEVICE_ID: u32 = 0x0102_8093;

/// An FPGA configuration image: sync word, target device, payload frames,
/// and a CRC-32 over the payload.
///
/// # Examples
///
/// ```
/// use dlc::Bitstream;
///
/// let bs = Bitstream::example_design();
/// assert!(bs.verify().is_ok());
/// assert_eq!(bs.device_id(), dlc::flash::DEVICE_ID);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    device_id: u32,
    frames: Vec<u32>,
    crc: u32,
}

impl Bitstream {
    /// Assembles a bitstream for `device_id` from payload `frames`,
    /// computing the CRC.
    pub fn new(device_id: u32, frames: Vec<u32>) -> Self {
        let crc = crc32(&frames);
        Bitstream { device_id, frames, crc }
    }

    /// The configuration image of the example DLC design used throughout
    /// this reproduction (pattern engines + USB register bridge).
    pub fn example_design() -> Self {
        // A deterministic pseudo-payload standing in for the real frames.
        let frames: Vec<u32> =
            (0..256u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A_5A5A).collect();
        Bitstream::new(DEVICE_ID, frames)
    }

    /// The target device ID.
    pub fn device_id(&self) -> u32 {
        self.device_id
    }

    /// Number of payload frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Checks internal consistency (CRC over the frames).
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] when the stored CRC does not match.
    pub fn verify(&self) -> Result<()> {
        if self.frames.is_empty() {
            return Err(DlcError::InvalidBitstream { reason: "no payload frames" });
        }
        if crc32(&self.frames) != self.crc {
            return Err(DlcError::InvalidBitstream { reason: "CRC mismatch" });
        }
        Ok(())
    }

    /// Serializes to the word format stored in FLASH:
    /// `[SYNC, device_id, len, frames…, crc]`.
    pub fn to_words(&self) -> Vec<u32> {
        let mut words = Vec::with_capacity(self.frames.len() + 4);
        words.push(SYNC_WORD);
        words.push(self.device_id);
        words.push(self.frames.len() as u32);
        words.extend_from_slice(&self.frames);
        words.push(self.crc);
        words
    }

    /// Parses a word image as read back from FLASH.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] on a missing sync word, truncated
    /// image, or CRC failure.
    pub fn from_words(words: &[u32]) -> Result<Self> {
        if words.len() < 4 {
            return Err(DlcError::InvalidBitstream { reason: "image too short" });
        }
        if words[0] != SYNC_WORD {
            return Err(DlcError::InvalidBitstream { reason: "missing sync word" });
        }
        let device_id = words[1];
        let len = words[2] as usize;
        if words.len() != len + 4 {
            return Err(DlcError::InvalidBitstream { reason: "length field mismatch" });
        }
        let frames = words[3..3 + len].to_vec(); // xlint::allow(panic-reachable, the length-field guard above pins words.len() to exactly len + 4)
        let crc = words[3 + len];
        let bs = Bitstream { device_id, frames, crc };
        bs.verify()?;
        Ok(bs)
    }
}

impl fmt::Display for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bitstream for device {:#010x}: {} frames, crc {:#010x}",
            self.device_id,
            self.frames.len(),
            self.crc
        )
    }
}

/// The DLC's configuration FLASH: sector-erased, word-programmed NOR flash.
///
/// Programming follows real NOR semantics: bits can only be cleared by
/// programming; returning them to 1 requires a sector erase. The JTAG layer
/// drives [`erase_all`](FlashMemory::erase_all) then
/// [`program_word`](FlashMemory::program_word) once per shifted word.
///
/// Only the programmed prefix of the device is stored; every word past it
/// reads erased. A 512 KiB part holding a 1 KiB image costs 1 KiB, and an
/// erase is O(1). Equality compares device contents, however they are
/// stored.
#[derive(Debug, Clone)]
pub struct FlashMemory {
    capacity: usize,
    /// Words `0..words.len()`; the rest of the device is erased.
    words: Vec<u32>,
}

/// Erased-state word of NOR flash.
const ERASED: u32 = 0xFFFF_FFFF;

impl FlashMemory {
    /// Creates an erased FLASH with `capacity` 32-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flash capacity must be nonzero");
        FlashMemory { capacity, words: Vec::new() }
    }

    /// Device capacity in words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Erases the whole device back to all-ones.
    pub fn erase_all(&mut self) {
        self.words.clear();
    }

    /// Extends the stored prefix, with erased words, to at least `len`
    /// words and returns the first `len`.
    fn cover(&mut self, len: usize) -> &mut [u32] {
        if self.words.len() < len {
            self.words.resize(len, ERASED);
        }
        self.words.get_mut(..len).unwrap_or_default()
    }

    /// Programs `data` starting at word 0 (NOR semantics: can only clear
    /// bits — call [`erase_all`](Self::erase_all) first for a clean image).
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if the image does not fit.
    pub fn program(&mut self, data: &[u32]) -> Result<()> {
        if data.len() > self.capacity {
            return Err(DlcError::InvalidBitstream { reason: "image exceeds flash capacity" });
        }
        for (w, d) in self.cover(data.len()).iter_mut().zip(data) {
            *w &= *d; // NOR programming clears bits only
        }
        Ok(())
    }

    /// Programs one word at `addr` (NOR semantics: clears bits only).
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if `addr` is past the device.
    pub fn program_word(&mut self, addr: usize, word: u32) -> Result<()> {
        if addr >= self.capacity {
            return Err(DlcError::InvalidBitstream { reason: "image exceeds flash capacity" });
        }
        if let Some(w) = self.cover(addr + 1).last_mut() {
            *w &= word;
        }
        Ok(())
    }

    /// Reads the word at `addr`, or `None` past the device.
    pub fn read_word(&self, addr: usize) -> Option<u32> {
        (addr < self.capacity).then(|| self.words.get(addr).copied().unwrap_or(ERASED))
    }

    /// Reads the stored words (the whole device, materialised).
    pub fn read_all(&self) -> Vec<u32> {
        self.read_prefix(self.capacity)
    }

    /// The first `len` words of the device (`len` at most the capacity).
    fn read_prefix(&self, len: usize) -> Vec<u32> {
        let mut words: Vec<u32> = self.words.iter().copied().take(len).collect();
        words.resize(len, ERASED);
        words
    }

    /// The stored words without their erased tail: the device contents
    /// in canonical form.
    fn programmed(&self) -> &[u32] {
        let end = self.words.iter().rposition(|w| *w != ERASED).map_or(0, |last| last + 1);
        self.words.get(..end).unwrap_or_default()
    }

    /// Attempts to parse a valid bitstream from the device contents.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if the flash is blank or corrupt.
    pub fn load_bitstream(&self) -> Result<Bitstream> {
        if self.read_word(0) == Some(ERASED) {
            return Err(DlcError::InvalidBitstream { reason: "flash is blank" });
        }
        // The image length is discoverable from the header.
        let Some(len) = self.read_word(2) else {
            return Err(DlcError::InvalidBitstream { reason: "image too short" });
        };
        let total = (len as usize)
            .checked_add(4)
            .ok_or(DlcError::InvalidBitstream { reason: "length field mismatch" })?;
        if total > self.capacity {
            return Err(DlcError::InvalidBitstream { reason: "length field mismatch" });
        }
        Bitstream::from_words(&self.read_prefix(total))
    }

    /// Flips one bit — a fault-injection hook for testing CRC detection.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or `bit > 31`.
    pub fn corrupt_bit(&mut self, word: usize, bit: u8) {
        assert!(bit < 32, "bit index out of range");
        assert!(word < self.capacity, "word index out of range");
        if let Some(w) = self.cover(word + 1).last_mut() {
            *w ^= 1 << bit;
        }
    }
}

impl PartialEq for FlashMemory {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.programmed() == other.programmed()
    }
}

impl Eq for FlashMemory {}

/// Plain CRC-32 (IEEE 802.3, bit-reflected) over a word slice.
fn crc32(words: &[u32]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for w in words {
        for byte in w.to_le_bytes() {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_properties() {
        // Empty input yields the defined initial value.
        assert_eq!(crc32(&[]), 0);
        // Deterministic and sensitive to single-bit changes.
        assert_eq!(crc32(&[1, 2, 3]), crc32(&[1, 2, 3]));
        assert_ne!(crc32(&[1, 2, 3]), crc32(&[1, 2, 4]));
        assert_ne!(crc32(&[1]), crc32(&[1, 0]));
    }

    #[test]
    fn bitstream_round_trip() {
        let bs = Bitstream::example_design();
        let words = bs.to_words();
        let back = Bitstream::from_words(&words).unwrap();
        assert_eq!(back, bs);
        assert_eq!(back.num_frames(), 256);
        assert!(back.to_string().contains("256 frames"));
    }

    #[test]
    fn bitstream_rejects_corruption() {
        let bs = Bitstream::example_design();
        let mut words = bs.to_words();
        words[10] ^= 0x8000;
        let err = Bitstream::from_words(&words).unwrap_err();
        assert!(matches!(err, DlcError::InvalidBitstream { reason: "CRC mismatch" }));
    }

    #[test]
    fn bitstream_rejects_bad_framing() {
        assert!(matches!(
            Bitstream::from_words(&[1, 2, 3]),
            Err(DlcError::InvalidBitstream { reason: "image too short" })
        ));
        let mut words = Bitstream::example_design().to_words();
        words[0] = 0xDEAD_BEEF;
        assert!(matches!(
            Bitstream::from_words(&words),
            Err(DlcError::InvalidBitstream { reason: "missing sync word" })
        ));
        let mut words = Bitstream::example_design().to_words();
        words[2] += 1;
        assert!(matches!(
            Bitstream::from_words(&words),
            Err(DlcError::InvalidBitstream { reason: "length field mismatch" })
        ));
        let empty = Bitstream::new(DEVICE_ID, vec![]);
        assert!(empty.verify().is_err());
    }

    #[test]
    fn flash_program_and_boot() {
        let mut flash = FlashMemory::new(512);
        assert_eq!(flash.capacity(), 512);
        assert!(flash.load_bitstream().is_err(), "blank flash must not boot");
        let bs = Bitstream::example_design();
        flash.program(&bs.to_words()).unwrap();
        let loaded = flash.load_bitstream().unwrap();
        assert_eq!(loaded, bs);
    }

    #[test]
    fn flash_reprogram_requires_erase() {
        let mut flash = FlashMemory::new(512);
        let bs = Bitstream::example_design();
        flash.program(&bs.to_words()).unwrap();
        // Programming a different image over the old one without erasing
        // ANDs the bits together and breaks the CRC.
        let other = Bitstream::new(DEVICE_ID, (0..256).map(|i| i * 3 + 1).collect());
        flash.program(&other.to_words()).unwrap();
        assert!(flash.load_bitstream().is_err());
        // Erase-then-program recovers.
        flash.erase_all();
        flash.program(&other.to_words()).unwrap();
        assert_eq!(flash.load_bitstream().unwrap(), other);
    }

    #[test]
    fn flash_detects_bit_rot() {
        let mut flash = FlashMemory::new(512);
        flash.program(&Bitstream::example_design().to_words()).unwrap();
        flash.corrupt_bit(20, 7);
        let err = flash.load_bitstream().unwrap_err();
        assert!(matches!(err, DlcError::InvalidBitstream { reason: "CRC mismatch" }));
    }

    #[test]
    fn program_word_matches_whole_image_program() {
        let words = Bitstream::example_design().to_words();
        let mut whole = FlashMemory::new(512);
        whole.program(&words).unwrap();
        let mut by_word = FlashMemory::new(512);
        for (addr, w) in words.iter().enumerate() {
            by_word.program_word(addr, *w).unwrap();
        }
        assert_eq!(by_word, whole);
        // NOR: programming again ANDs into the stored word.
        by_word.program_word(3, 0x0F0F_0F0F).unwrap();
        assert_eq!(by_word.read_all()[3], words[3] & 0x0F0F_0F0F);
        assert!(matches!(
            by_word.program_word(512, 0),
            Err(DlcError::InvalidBitstream { reason: "image exceeds flash capacity" })
        ));
    }

    #[test]
    fn erased_words_are_implicit() {
        let mut flash = FlashMemory::new(131_072);
        assert_eq!(flash.read_word(131_071), Some(ERASED));
        assert_eq!(flash.read_word(131_072), None);
        flash.program_word(5, 0x1234_5678).unwrap();
        assert_eq!(flash.read_word(4), Some(ERASED));
        assert_eq!(flash.read_word(5), Some(0x1234_5678));
        let all = flash.read_all();
        assert_eq!(all.len(), 131_072);
        assert!(all
            .iter()
            .enumerate()
            .all(|(i, w)| *w == if i == 5 { 0x1234_5678 } else { ERASED }));
        // Equality is by contents: an erased word stored explicitly
        // equals one that is implicit.
        let mut explicit = FlashMemory::new(131_072);
        explicit.program(&[ERASED; 9]).unwrap();
        explicit.program_word(5, 0x1234_5678).unwrap();
        assert_eq!(explicit, flash);
        assert_ne!(explicit, FlashMemory::new(131_072));
        assert_ne!(FlashMemory::new(8), FlashMemory::new(9));
        flash.erase_all();
        assert_eq!(flash, FlashMemory::new(131_072));
        // An image header may claim more words than were programmed.
        let mut header_only = FlashMemory::new(512);
        header_only.program(&Bitstream::example_design().to_words()[..3]).unwrap();
        assert!(matches!(
            header_only.load_bitstream(),
            Err(DlcError::InvalidBitstream { reason: "CRC mismatch" })
        ));
        let mut rot = FlashMemory::new(16);
        rot.corrupt_bit(15, 0);
        assert_eq!(rot.read_word(15), Some(ERASED ^ 1));
    }

    #[test]
    fn flash_capacity_guard() {
        let mut flash = FlashMemory::new(4);
        let bs = Bitstream::example_design();
        assert!(flash.program(&bs.to_words()).is_err());
        assert_eq!(flash.read_all().len(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = FlashMemory::new(0);
    }
}
