//! The bit-accurate functional hybrid cache.
//!
//! Every stored word (data and tag) is a real EDC codeword produced by
//! the active code of the writing mode. Hard faults are stuck-at bits
//! overlaid on every read; soft errors are injected bit flips. The
//! decode path therefore exercises the actual [`hyvec_edc`] machinery,
//! counting corrections, detected uncorrectable errors and — crucially
//! for the unprotected baselines — *silent corruptions*, where the
//! delivered payload differs from what was written without any error
//! signal.
//!
//! Every write stores the same thing: the active code's codeword of
//! the deterministic payload [`value_for`] of the word address, or of
//! the line's tag. A stored codeword is therefore a pure function of
//! the line's address and the mode, and the cache derives it on demand
//! instead of keeping it. It records only where a stored word differs
//! from that: soft flips, and stores that land in another address's
//! line through a faulty tag (a *false hit*).

use crate::config::{CacheConfig, Mode, WaySpec};
use crate::stats::CacheStats;
use hyvec_edc::{Decoded, DectedCode, EdcCode, HsiaoCode, NoCode, Protection};
use std::sync::atomic::{AtomicBool, Ordering};

/// Stuck-at fault pattern for one stored word: where `mask` is set,
/// the cell always reads `value` regardless of what was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StuckBits {
    /// Bit positions that are hard-faulty.
    pub mask: u64,
    /// The values the faulty positions are stuck at.
    pub value: u64,
}

impl StuckBits {
    /// Applies the fault to a stored word as seen by a read.
    #[inline]
    pub fn apply(&self, stored: u64) -> u64 {
        (stored & !self.mask) | (self.value & self.mask)
    }

    /// Number of faulty bits.
    pub fn count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Identifies one stored word inside a cache: data words are slots
/// `0..words_per_line`, the tag is the last slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordSlot {
    /// The way index.
    pub way: usize,
    /// The set index.
    pub set: u64,
    /// Word index within the line, or `words_per_line` for the tag.
    pub slot: u64,
}

/// Monomorphized codec dispatch: one `match` instead of a virtual
/// call per decode. The three arms cover every [`Protection`] level,
/// so the per-access hot loop never goes through a vtable.
#[derive(Debug, Clone)]
enum Codec {
    None(NoCode),
    Secded(HsiaoCode),
    Dected(DectedCode),
}

impl Codec {
    /// Builds the codec for one way/width pair. Infallible by
    /// construction: [`CacheConfig::validate`] rejects any
    /// width/protection pair the code families cannot build
    /// (`ConfigError::UnsupportedWidth`), and every construction path
    /// validates before building codecs.
    fn build(protection: Protection, data_bits: usize) -> Self {
        match protection {
            Protection::None => Codec::None(NoCode::new(data_bits)),
            Protection::Secded => {
                Codec::Secded(
                    HsiaoCode::new(data_bits)
                        // hyvec-lint: allow(no-panic, "width pre-checked by CacheConfig::validate, which gates every construction path")
                        .expect("validate() guarantees SECDED supports this width"),
                )
            }
            Protection::Dected => {
                Codec::Dected(
                    DectedCode::new(data_bits)
                        // hyvec-lint: allow(no-panic, "width pre-checked by CacheConfig::validate, which gates every construction path")
                        .expect("validate() guarantees DECTED supports this width"),
                )
            }
        }
    }

    #[inline]
    fn encode(&self, data: u64) -> u64 {
        match self {
            Codec::None(c) => c.encode(data),
            Codec::Secded(c) => c.encode(data),
            Codec::Dected(c) => c.encode(data),
        }
    }

    #[inline]
    fn decode(&self, word: u64) -> Decoded {
        match self {
            Codec::None(c) => c.decode(word),
            Codec::Secded(c) => c.decode(word),
            Codec::Dected(c) => c.decode(word),
        }
    }
}

/// Per-way configuration and codecs. Line state lives in the flat
/// struct-of-arrays vectors on [`HybridCache`] itself.
#[derive(Debug)]
struct WayCodecs {
    spec: WaySpec,
    data_code_hp: Codec,
    data_code_ule: Codec,
    tag_code_hp: Codec,
    tag_code_ule: Codec,
}

impl WayCodecs {
    #[inline]
    fn data_code(&self, mode: Mode) -> &Codec {
        match mode {
            Mode::Hp => &self.data_code_hp,
            Mode::Ule => &self.data_code_ule,
        }
    }

    #[inline]
    fn tag_code(&self, mode: Mode) -> &Codec {
        match mode {
            Mode::Hp => &self.tag_code_hp,
            Mode::Ule => &self.tag_code_ule,
        }
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Bit errors corrected by EDC during this access.
    pub corrected: u32,
    /// Detected uncorrectable errors during this access.
    pub detected: u32,
    /// Silent corruptions: payload delivered differs from what was
    /// written, with no error signalled (only possible without/beyond
    /// the protection).
    pub silent: u32,
    /// Whether a dirty victim was written back.
    pub writeback: bool,
}

/// The functional hybrid set-associative cache.
///
/// See the [module docs](self) for the storage model.
///
/// # Tiered access paths
///
/// [`HybridCache::access`] dispatches between two implementations
/// with bit-identical counters:
///
/// * the **fast path** engages while the cache is *fault-free* — no
///   stuck-at faults installed and no soft flip recorded
///   ([`HybridCache::is_fault_free`]). Every stored word is then
///   exactly the codeword the active code produced, so tag decode is
///   an identity check, payload verification can never fail, and both
///   are skipped entirely: a lookup is a plain tag compare and a hit
///   touches only the LRU stamp;
/// * the **gated path** runs once any fault or flip is present. It
///   decodes a tag or data word only when its slot carries a stuck bit
///   or a flip: it rebuilds the stored word as the derived codeword
///   XOR the flip, overlays the stuck bits and runs the real decoder.
///   A pristine slot decodes to what was written by construction, so
///   its tag is a plain compare and its read is clean without a
///   decode. A read through a *false hit* — a faulty tag that decodes
///   to the wanted tag — always decodes: the line's words were written
///   for another address.
///
/// [`HybridCache::set_force_slow_path`] makes the gated path decode
/// every word, pristine ones included: the reference the equivalence
/// tests and benchmarks compare both tiers against.
///
/// Nothing is materialized in either tier, so the cache can drop from
/// fast to gated at any time — e.g. when [`HybridCache::set_stuck_bits`]
/// arms a fault mid-run — and back once stores, fills or a mode switch
/// have cleared every flip and no fault is left.
///
/// # Storage layout
///
/// Line state is struct-of-arrays: `valid`/`dirty`/`tags`/
/// `lru_stamps` are flat vectors indexed by `(way, set)` through the
/// private `line_index` helper (set-major, so the ways of one set are
/// contiguous and a lookup or victim scan walks a cache-friendly
/// slice). No codeword is stored: data and tag codewords derive from
/// the line's address (its plain tag, set and the word offset) and the
/// mode. Stuck-at faults and soft flips live in short per-line
/// `(slot, bits)` and `(slot, xor)` lists
/// rather than hash maps, each gated by a per-line slot bitmask (bit
/// `s` = slot `s` has an entry, saturating at bit 63), so the common
/// pristine word costs one mask test and even a faulty word costs a
/// one-or-two entry linear scan instead of a hash. A fill drops its
/// line's flips and a store drops its word's flip, just as rewriting a
/// stored word would; a store through a false hit instead records how
/// its payload's codeword differs from the line's own.
#[derive(Debug)]
pub struct HybridCache {
    config: CacheConfig,
    /// Per-way specs and codecs, in way order.
    ways: Vec<WayCodecs>,
    num_ways: usize,
    words_per_line: usize,
    /// `log2(line_bytes)` — the geometry is validated power-of-two,
    /// so indexing is shifts and masks, never division.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// `(1 << tag_bits) - 1`.
    tag_mask: u64,
    /// `log2(word_bytes)`: `validate()` guarantees whole-byte words
    /// that divide a power-of-two line, so the word size is a power of
    /// two too.
    word_shift: u32,
    /// SoA line state; see the type docs for the layout.
    valid: Vec<bool>,
    dirty: Vec<bool>,
    /// Plain (unencoded) tags; a line's stored tag codeword is the
    /// active tag code's encoding of this value.
    tags: Vec<u64>,
    lru_stamps: Vec<u64>,
    /// Per-line bitmask of word slots with stuck-at entries.
    fault_masks: Vec<u64>,
    /// Per-line bitmask of word slots with soft flips.
    flip_masks: Vec<u64>,
    /// Which ways participate in the current mode (recomputed on mode
    /// switches, so the hot loop is one slice load per way).
    enabled_now: Vec<bool>,
    /// Per-way: the active tag codec is [`Protection::None`]
    /// (recomputed on mode switches). A plain way's tag decode is a
    /// mask-and-compare, so the gated path never touches the (large)
    /// codec structs for it.
    tag_plain_now: Vec<bool>,
    /// Per-way: the active data codec is [`Protection::None`].
    data_plain_now: Vec<bool>,
    /// `mask_low(_, word_bits)` as a mask — the identity an
    /// unprotected data codec applies on encode and decode.
    word_mask: u64,
    /// Stuck-at faults per line, each a short list sorted by slot.
    /// Lines are overwhelmingly fault-free (gated by `fault_masks`),
    /// and a faulty line rarely carries more than a couple of entries,
    /// so a linear probe beats a hash map on the gated path.
    faults: Vec<Vec<(u64, StuckBits)>>,
    /// Total installed fault entries across all lines (the
    /// `is_fault_free` gate, without walking `faults`).
    fault_entries: usize,
    /// Per line, `(slot, xor)` pairs: how each listed stored word
    /// differs from its derived codeword. That is the XOR of the soft
    /// flips that landed on it since it was last written, or, after a
    /// store through a false tag hit, the stored payload's codeword
    /// XOR the line's own.
    flips: Vec<Vec<(u64, u64)>>,
    /// Total flip entries across all lines.
    flip_entries: usize,
    mode: Mode,
    lru_clock: u64,
    stats: CacheStats,
    /// Reference override: route every access through the gated path
    /// and decode every word, pristine ones included.
    force_slow: bool,
}

/// Process-global default for [`HybridCache::set_force_slow_path`],
/// applied to every cache built afterwards. This is how
/// `hyvec run-all --force-slow-path` reaches the caches that
/// experiments construct internally.
static FORCE_SLOW_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Sets the process-global slow-path pin: caches constructed while it
/// is `true` start on the reference path, exactly as if
/// [`HybridCache::set_force_slow_path`] had been called on each.
/// Counters are bit-identical either way, so flipping this mid-run
/// only ever changes timing, never results.
pub fn set_global_force_slow_path(force: bool) {
    FORCE_SLOW_DEFAULT.store(force, Ordering::SeqCst);
}

/// Reads the process-global slow-path pin.
pub fn global_force_slow_path() -> bool {
    FORCE_SLOW_DEFAULT.load(Ordering::SeqCst)
}

/// The deterministic payload written for a given word address; reads
/// are checked against it to expose silent corruption.
#[inline]
pub fn value_for(word_addr: u64) -> u64 {
    // splitmix64 finalizer, truncated to 32 bits.
    let mut z = word_addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

impl HybridCache {
    /// Builds an empty cache in the given mode.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CacheConfig::validate`]). Use [`HybridCache::try_new`] to
    /// handle the error instead.
    pub fn new(config: CacheConfig, mode: Mode) -> Self {
        match HybridCache::try_new(config, mode) {
            Ok(cache) => cache,
            // hyvec-lint: allow(no-panic, "documented panicking shim; HybridCache::try_new is the fallible path")
            Err(e) => panic!("invalid cache config: {e}"),
        }
    }

    /// Builds an empty cache in the given mode, reporting an invalid
    /// geometry instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`CacheConfig`] invariant.
    pub fn try_new(config: CacheConfig, mode: Mode) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        let sets = config.sets() as usize;
        let words_per_line = config.words_per_line() as usize;
        let ways: Vec<WayCodecs> = config
            .ways
            .iter()
            .map(|spec| WayCodecs {
                spec: *spec,
                data_code_hp: Codec::build(spec.protection_hp, config.word_bits as usize),
                data_code_ule: Codec::build(spec.protection_ule, config.word_bits as usize),
                tag_code_hp: Codec::build(spec.protection_hp, config.tag_bits as usize),
                tag_code_ule: Codec::build(spec.protection_ule, config.tag_bits as usize),
            })
            .collect();
        let num_ways = ways.len();
        let lines = sets * num_ways;
        let enabled_now = ways.iter().map(|w| w.spec.enabled(mode)).collect();
        let tag_plain_now = ways
            .iter()
            .map(|w| matches!(w.tag_code(mode), Codec::None(_)))
            .collect();
        let data_plain_now = ways
            .iter()
            .map(|w| matches!(w.data_code(mode), Codec::None(_)))
            .collect();
        let word_mask = if config.word_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << config.word_bits) - 1
        };
        // `validate()` guarantees power-of-two line bytes and sets, so
        // the per-access index math compiles down to shifts and masks.
        let line_shift = config.line_bytes.trailing_zeros();
        let set_shift = config.sets().trailing_zeros();
        let set_mask = config.sets() - 1;
        let tag_mask = (1u64 << config.tag_bits) - 1;
        let word_shift = (config.word_bits / 8).trailing_zeros();
        Ok(HybridCache {
            config,
            ways,
            num_ways,
            words_per_line,
            line_shift,
            set_shift,
            set_mask,
            tag_mask,
            word_shift,
            valid: vec![false; lines],
            dirty: vec![false; lines],
            tags: vec![0; lines],
            lru_stamps: vec![0; lines],
            fault_masks: vec![0; lines],
            flip_masks: vec![0; lines],
            enabled_now,
            tag_plain_now,
            data_plain_now,
            word_mask,
            faults: vec![Vec::new(); lines],
            fault_entries: 0,
            flips: vec![Vec::new(); lines],
            flip_entries: 0,
            mode,
            lru_clock: 0,
            stats: CacheStats::default(),
            force_slow: global_force_slow_path(),
        })
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Flat index of `(way, set)` into the struct-of-arrays line
    /// state: set-major, so one set's ways are contiguous.
    #[inline]
    fn line_index(&self, way: usize, set: u64) -> usize {
        set as usize * self.num_ways + way
    }

    /// The bit `slot` occupies in a line's fault and flip masks. Slots
    /// past 63 share the top bit, which then conservatively means
    /// "probe the list".
    #[inline]
    fn slot_bit(slot: u64) -> u64 {
        1u64 << slot.min(63)
    }

    /// Installs a stuck-at fault pattern on one stored word.
    ///
    /// # Panics
    ///
    /// Panics if the slot's way or set is out of range for this
    /// geometry.
    pub fn set_stuck_bits(&mut self, slot: WordSlot, faults: StuckBits) {
        let li = self.line_index(slot.way, slot.set);
        let entries = &mut self.faults[li];
        let existing = entries.iter().position(|&(s, _)| s == slot.slot);
        if faults.mask == 0 {
            if let Some(i) = existing {
                entries.remove(i);
                self.fault_entries -= 1;
            }
            // Rebuild this line's slot mask from the surviving entries.
            let mut mask = 0u64;
            for &(s, _) in entries.iter() {
                mask |= Self::slot_bit(s);
            }
            self.fault_masks[li] = mask;
        } else {
            match existing {
                Some(i) => entries[i].1 = faults,
                None => {
                    entries.push((slot.slot, faults));
                    entries.sort_unstable_by_key(|&(s, _)| s);
                    self.fault_entries += 1;
                }
            }
            self.fault_masks[li] |= Self::slot_bit(slot.slot);
        }
    }

    /// Number of faulty bits currently installed.
    pub fn fault_bit_count(&self) -> u64 {
        self.faults
            .iter()
            .flatten()
            .map(|&(_, f)| u64::from(f.count()))
            .sum()
    }

    /// Whether every stored word is guaranteed pristine: no stuck-at
    /// faults installed and no soft flip recorded (a store, a fill or
    /// a mode switch clears the flips it overwrites). While this
    /// holds, [`HybridCache::access`] runs the EDC-free fast path (see
    /// the type docs).
    pub fn is_fault_free(&self) -> bool {
        self.fault_entries == 0 && self.flip_entries == 0
    }

    /// Pins the reference path: every access goes through the gated
    /// path and decodes every word, pristine ones included, even when
    /// the cache is fault-free. Counters are bit-identical either way
    /// (asserted by the equivalence property suites); this knob exists
    /// so tests and benchmarks can compare both tiers and the per-word
    /// gate against full decoding on the same workload.
    pub fn set_force_slow_path(&mut self, force: bool) {
        self.force_slow = force;
    }

    fn fast_path_ready(&self) -> bool {
        !self.force_slow && self.is_fault_free()
    }

    /// Flips one stored bit (a soft error / SEU). The flip lands in
    /// the *stored* word, so a later rewrite — a store to the word or
    /// a fill of its line — clears it.
    ///
    /// # Panics
    ///
    /// Panics if the slot's way or set is out of range.
    pub fn inject_soft_error(&mut self, slot: WordSlot, bit: u32) {
        let li = self.line_index(slot.way, slot.set);
        let xor = self.flip_at(li, slot.slot) ^ (1u64 << bit);
        self.set_flip(li, slot.slot, xor);
    }

    /// How the word at `(li, slot)` differs from its derived codeword
    /// (0 when no entry is recorded).
    #[inline]
    fn flip_at(&self, li: usize, slot: u64) -> u64 {
        if self.flip_masks[li] & Self::slot_bit(slot) != 0 {
            if let Some(&(_, xor)) = self.flips[li].iter().find(|&&(s, _)| s == slot) {
                return xor;
            }
        }
        0
    }

    /// Records that the word at `(li, slot)` holds its derived codeword
    /// XOR `xor`; zero drops the entry.
    #[inline]
    fn set_flip(&mut self, li: usize, slot: u64, xor: u64) {
        if xor == 0 && self.flip_masks[li] & Self::slot_bit(slot) == 0 {
            return;
        }
        let entries = &mut self.flips[li];
        match (entries.iter().position(|&(s, _)| s == slot), xor) {
            (Some(i), 0) => {
                entries.swap_remove(i);
                self.flip_entries -= 1;
            }
            (Some(i), _) => entries[i].1 = xor,
            (None, 0) => {}
            (None, _) => {
                entries.push((slot, xor));
                self.flip_entries += 1;
            }
        }
        self.flip_masks[li] = entries.iter().fold(0, |m, &(s, _)| m | Self::slot_bit(s));
    }

    /// Drops every flip on line `li`: the line was just refilled.
    #[inline]
    fn clear_line_flips(&mut self, li: usize) {
        if self.flip_masks[li] != 0 {
            self.flip_entries -= self.flips[li].len();
            self.flips[li].clear();
            self.flip_masks[li] = 0;
        }
    }

    /// Switches operating mode, flushing the cache (dirty lines are
    /// written back) — the Vcc transition invalidates HP ways anyway
    /// and re-encodes would otherwise be needed where the protection
    /// level changes.
    ///
    /// Returns the number of lines written back.
    pub fn set_mode(&mut self, mode: Mode) -> u64 {
        let mut writebacks = 0;
        for (valid, dirty) in self.valid.iter_mut().zip(self.dirty.iter_mut()) {
            if *valid && *dirty {
                writebacks += 1;
            }
            *valid = false;
            *dirty = false;
        }
        self.stats.writebacks += writebacks;
        self.mode = mode;
        for (enabled, way) in self.enabled_now.iter_mut().zip(&self.ways) {
            *enabled = way.spec.enabled(mode);
        }
        for (plain, way) in self.tag_plain_now.iter_mut().zip(&self.ways) {
            *plain = matches!(way.tag_code(mode), Codec::None(_));
        }
        for (plain, way) in self.data_plain_now.iter_mut().zip(&self.ways) {
            *plain = matches!(way.data_code(mode), Codec::None(_));
        }
        // Every line is now invalid and a fill rewrites the whole line
        // (tag included), so no recorded flip can be observed again.
        if self.flip_entries != 0 {
            for (entries, mask) in self.flips.iter_mut().zip(&mut self.flip_masks) {
                entries.clear();
                *mask = 0;
            }
            self.flip_entries = 0;
        }
        writebacks
    }

    #[inline]
    fn index(&self, addr: u64) -> (u64, u64) {
        let line_addr = addr >> self.line_shift;
        let set = line_addr & self.set_mask;
        let tag = (line_addr >> self.set_shift) & self.tag_mask;
        (set, tag)
    }

    /// Splits `addr` into the word's slot within its line and the
    /// word-aligned byte address.
    #[inline]
    fn word_slot_and_addr(&self, addr: u64) -> (u64, u64) {
        let offset = addr & (self.config.line_bytes - 1);
        let s = self.word_shift;
        (offset >> s, (addr >> s) << s)
    }

    /// Whether a read of `(li, slot)` must decode: always on the
    /// reference path, else only when the slot carries a stuck bit or
    /// a flip. Anything else decodes to what was written.
    #[inline]
    fn suspect(&self, li: usize, slot: u64) -> bool {
        self.force_slow || (self.fault_masks[li] | self.flip_masks[li]) & Self::slot_bit(slot) != 0
    }

    /// The word a read of `(li, slot)` sees when `codeword` is its
    /// derived codeword: the codeword XOR the slot's recorded
    /// difference, then its stuck-at bits. The per-line slot masks
    /// filter out the overwhelmingly common pristine case before the
    /// (short, linear) list probes.
    #[inline]
    fn read_word(&self, li: usize, slot: u64, codeword: u64) -> u64 {
        let stored = codeword ^ self.flip_at(li, slot);
        if self.fault_masks[li] & Self::slot_bit(slot) != 0 {
            if let Some(&(_, f)) = self.faults[li].iter().find(|&&(s, _)| s == slot) {
                return f.apply(stored);
            }
        }
        stored
    }

    /// `word_addr` moved into the line tagged `line_tag` (same set,
    /// same offset): the address the line's copy of that word was
    /// written for. It equals `word_addr` exactly when the line is the
    /// address's own.
    #[inline]
    fn retag(&self, word_addr: u64, line_tag: u64) -> u64 {
        let shift = self.line_shift + self.set_shift;
        (word_addr & !(self.tag_mask << shift)) | (line_tag << shift)
    }

    /// The active data code of `way` applied to the payload of
    /// `word_addr`. An unprotected way's encode is just the word mask.
    #[inline]
    fn data_codeword(&self, way: usize, word_addr: u64) -> u64 {
        if self.data_plain_now[way] {
            value_for(word_addr) & self.word_mask
        } else {
            self.ways[way]
                .data_code(self.mode)
                .encode(value_for(word_addr))
        }
    }

    /// Reads one stored word through the flip and fault layers,
    /// addressed as a [`WordSlot`] of a valid line (tests exercise the
    /// fault plumbing through this; the hot paths derive the codeword
    /// from the access address).
    #[cfg(test)]
    fn read_stored(&self, slot: WordSlot) -> u64 {
        let li = self.line_index(slot.way, slot.set);
        let codeword = if slot.slot as usize == self.words_per_line {
            self.ways[slot.way]
                .tag_code(self.mode)
                .encode(self.tags[li])
        } else {
            let line_addr = ((self.tags[li] << self.set_shift) | slot.set) << self.line_shift;
            self.data_codeword(slot.way, line_addr + (slot.slot << self.word_shift))
        };
        self.read_word(li, slot.slot, codeword)
    }

    /// Looks up `addr`, returning the hit way if any, and counts tag
    /// EDC activity.
    fn lookup(&self, set: u64, tag: u64) -> (Option<usize>, u32, u32) {
        let mode = self.mode;
        let tag_slot = self.words_per_line as u64;
        let base = set as usize * self.num_ways;
        let mut corrected = 0;
        let mut detected = 0;
        let mut hit_way = None;
        for w in 0..self.num_ways {
            let li = base + w;
            if !self.enabled_now[w] || !self.valid[li] {
                continue;
            }
            if !self.suspect(li, tag_slot) {
                // Pristine tag: its codeword decodes to exactly the
                // plain tag.
                if self.tags[li] == tag {
                    hit_way = Some(w);
                }
                continue;
            }
            if self.tag_plain_now[w] {
                // Unprotected tag: the codeword is the tag and decode
                // is a mask, so skip the codec struct.
                if self.read_word(li, tag_slot, self.tags[li]) & self.tag_mask == tag {
                    hit_way = Some(w);
                }
                continue;
            }
            let code = self.ways[w].tag_code(mode);
            let stored = self.read_word(li, tag_slot, code.encode(self.tags[li]));
            match code.decode(stored) {
                Decoded::Clean { data } => {
                    if data == tag {
                        hit_way = Some(w);
                    }
                }
                Decoded::Corrected { data, errors } => {
                    corrected += errors;
                    if data == tag {
                        hit_way = Some(w);
                    }
                }
                Decoded::Detected { .. } => {
                    // Tag unreadable: conservatively a mismatch.
                    detected += 1;
                }
            }
        }
        (hit_way, corrected, detected)
    }

    /// Performs one access. `addr` is a byte address; writes store the
    /// deterministic payload for the word, reads verify it.
    ///
    /// Dispatches between the fault-free fast path and the gated EDC
    /// path (see the type docs); the two produce bit-identical
    /// counters and outcomes whenever both are applicable.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let (set, tag) = self.index(addr);
        self.lru_clock += 1;
        self.stats.accesses += 1;
        if is_write {
            self.stats.writes += 1;
        }
        if self.fast_path_ready() {
            self.access_fast(is_write, set, tag)
        } else {
            // Both the word slot and the verified payload address
            // derive from the configured word width.
            let (word_idx, word_addr) = self.word_slot_and_addr(addr);
            self.access_gated(is_write, set, tag, word_idx, word_addr)
        }
    }

    /// The fault-free fast path: no stored word can decode to anything
    /// but the value written, so tag matching is a plain compare and
    /// payload verification is skipped. Counters move exactly as in
    /// [`HybridCache::access_gated`]: a fault-free gated access always
    /// yields `corrected == detected == silent == 0`.
    fn access_fast(&mut self, is_write: bool, set: u64, tag: u64) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        let base = set as usize * self.num_ways;
        // Last match wins, mirroring the gated lookup's scan order. The
        // set's ways are one contiguous slice of each SoA vector.
        let mut hit_way = None;
        for w in 0..self.num_ways {
            if self.enabled_now[w] && self.valid[base + w] && self.tags[base + w] == tag {
                hit_way = Some(w);
            }
        }
        let way = match hit_way {
            Some(w) => {
                self.stats.hits += 1;
                outcome.hit = true;
                w
            }
            None => {
                self.stats.misses += 1;
                let victim = self.choose_victim(set);
                outcome.writeback = self.fill(victim, set, tag);
                victim
            }
        };
        if is_write {
            // A store rewrites the codeword the word already derives
            // to, and a fault-free cache has no flip to clear, so only
            // the dirty bit moves.
            self.dirty[base + way] = true;
        }
        self.lru_stamps[base + way] = self.lru_clock;
        outcome
    }

    /// The gated EDC path: decode the candidate tags and the loaded
    /// payload whose slots are suspect (every one when forced), and
    /// let stores clear their word's flip.
    fn access_gated(
        &mut self,
        is_write: bool,
        set: u64,
        tag: u64,
        word_idx: u64,
        word_addr: u64,
    ) -> AccessOutcome {
        let mode = self.mode;
        let (hit_way, mut corrected, mut detected) = self.lookup(set, tag);
        let mut outcome = AccessOutcome::default();

        let way = match hit_way {
            Some(w) => {
                self.stats.hits += 1;
                outcome.hit = true;
                w
            }
            None => {
                self.stats.misses += 1;
                let victim = self.choose_victim(set);
                outcome.writeback = self.fill(victim, set, tag);
                victim
            }
        };

        let li = self.line_index(way, set);
        // On a false hit (a faulty tag decoding to `tag`) the line's
        // words were written for another address.
        let line_word_addr = self.retag(word_addr, self.tags[li]);
        if is_write {
            // Store: the word now holds its payload's codeword. That is
            // its derived codeword unless the hit was false.
            let xor = if line_word_addr == word_addr {
                0
            } else {
                self.data_codeword(way, word_addr) ^ self.data_codeword(way, line_word_addr)
            };
            self.set_flip(li, word_idx, xor);
            self.dirty[li] = true;
        } else if line_word_addr != word_addr || self.suspect(li, word_idx) {
            // Load of a suspect word: rebuild what the cells hold and
            // verify the payload — truncated to the stored word width,
            // exactly as the encoder stores it.
            let expected = value_for(word_addr) & self.word_mask;
            let stored = self.read_word(li, word_idx, self.data_codeword(way, line_word_addr));
            if self.data_plain_now[way] {
                // Unprotected data: decode is the word mask.
                if stored & self.word_mask != expected {
                    outcome.silent += 1;
                }
            } else {
                match self.ways[way].data_code(mode).decode(stored) {
                    Decoded::Clean { data } => {
                        if data != expected {
                            outcome.silent += 1;
                        }
                    }
                    Decoded::Corrected { data, errors } => {
                        corrected += errors;
                        if data != expected {
                            outcome.silent += 1;
                        }
                    }
                    Decoded::Detected { .. } => {
                        detected += 1;
                    }
                }
            }
        }
        // A load of a pristine word of the address's own line is clean
        // by construction.
        self.lru_stamps[li] = self.lru_clock;

        outcome.corrected = corrected;
        outcome.detected = detected;
        self.stats.corrected += u64::from(corrected);
        self.stats.detected += u64::from(detected);
        self.stats.silent_corruptions += u64::from(outcome.silent);
        outcome
    }

    /// Picks the eviction victim among the ways enabled in the current
    /// mode: the first invalid line, else the least-recently-used one.
    ///
    /// Ties on the LRU stamp are broken toward the **lowest-index
    /// enabled way**. The strictly-increasing access clock never
    /// stamps two valid lines equally on its own, but staged states
    /// (tests, future bulk-load paths) can — so the choice is pinned
    /// explicitly rather than left to the scan order.
    fn choose_victim(&self, set: u64) -> usize {
        let base = set as usize * self.num_ways;
        let mut best: Option<(usize, u64)> = None;
        for w in 0..self.num_ways {
            if !self.enabled_now[w] {
                continue;
            }
            if !self.valid[base + w] {
                return w;
            }
            let stamp = self.lru_stamps[base + w];
            let strictly_older = match best {
                None => true,
                // `<`, not `<=`: on equal stamps the earlier
                // (lowest-index) enabled way stays the victim.
                Some((_, best_lru)) => stamp < best_lru,
            };
            if strictly_older {
                best = Some((w, stamp));
            }
        }
        // hyvec-lint: allow(no-panic, "validate() guarantees every mode has an enabled way: HP enables all, ULE is gated by NoUleWay")
        best.expect("at least one enabled way").0
    }

    /// Fills `(set, tag)` into `way`, returning whether a dirty victim
    /// was evicted. The line's codewords are derived, so a fill only
    /// drops the flips the rewrite overwrites.
    fn fill(&mut self, way: usize, set: u64, tag: u64) -> bool {
        let li = self.line_index(way, set);
        let writeback = self.valid[li] && self.dirty[li];
        self.clear_line_flips(li);
        self.tags[li] = tag;
        self.valid[li] = true;
        self.dirty[li] = false;
        self.lru_stamps[li] = self.lru_clock;
        self.stats.fills += 1;
        if writeback {
            self.stats.writebacks += 1;
        }
        writeback
    }

    /// Number of ways enabled in the current mode.
    pub fn enabled_ways(&self) -> usize {
        self.enabled_now.iter().filter(|&&e| e).count()
    }
}

// The epoch-parallel multi-core engine moves each core's L1 pair onto
// scoped worker threads; this pins the `Send` bound at compile time so
// a non-`Send` field (an `Rc`, a raw pointer) added later fails here,
// next to the type, rather than deep inside the thread scope.
const fn assert_send<T: Send>() {}
const _: () = assert_send::<HybridCache>();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use hyvec_edc::Protection;
    use hyvec_sram::CellKind;

    fn cache() -> HybridCache {
        HybridCache::new(SystemConfig::uniform_6t().il1, Mode::Hp)
    }

    fn hybrid_a_proposal() -> HybridCache {
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(crate::config::WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule)
    }

    use crate::config::CacheConfig;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        let out = c.access(0x1000, false);
        assert!(!out.hit);
        let out = c.access(0x1004, false);
        assert!(out.hit, "same line must hit");
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = cache();
        c.access(0x0, false);
        c.access(32, false); // next set
        assert_eq!(c.stats().misses, 2);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(32, false).hit);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = cache();
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        // Fill all 8 ways of set 0.
        for i in 0..8u64 {
            c.access(i * sets * line, false);
        }
        // Touch way of line 0 to refresh it.
        c.access(0, false);
        // A ninth line evicts the LRU (line 1, not line 0).
        c.access(8 * sets * line, false);
        assert!(c.access(0, false).hit, "refreshed line must survive");
        assert!(!c.access(sets * line, false).hit, "LRU line must be gone");
    }

    #[test]
    fn ule_mode_uses_only_ule_ways() {
        let mut c = hybrid_a_proposal();
        assert_eq!(c.enabled_ways(), 1);
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        // Two conflicting lines thrash a single way.
        c.access(0, false);
        c.access(sets * line, false);
        assert!(!c.access(0, false).hit, "direct-mapped ULE way must evict");
    }

    #[test]
    fn writes_mark_dirty_and_cause_writebacks() {
        let mut c = hybrid_a_proposal();
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        c.access(0, true); // miss + fill + dirty
        let out = c.access(sets * line, false); // evicts dirty line
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_cache_delivers_correct_payloads() {
        let mut c = cache();
        for addr in (0..4096).step_by(4) {
            let out = c.access(addr, false);
            assert_eq!(out.silent, 0);
            assert_eq!(out.detected, 0);
        }
        assert_eq!(c.stats().silent_corruptions, 0);
    }

    #[test]
    fn secded_corrects_a_stuck_bit() {
        let mut c = hybrid_a_proposal();
        c.access(0, false); // fill set 0 into way 7
                            // Fault bit 3 of data word 0 in the ULE way, stuck at the
                            // wrong value.
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: 1 << 3,
                value: !stored & (1 << 3),
            },
        );
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.corrected, 1, "SECDED must correct the stuck bit");
        assert_eq!(out.silent, 0);
        assert_eq!(c.stats().corrected, 1);
    }

    #[test]
    fn unprotected_stuck_bit_corrupts_silently() {
        // Baseline scenario A at ULE: 10T with no coding. A stuck bit
        // is delivered as wrong data with no signal — the failure mode
        // the paper's yield math must prevent by sizing.
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(crate::config::WaySpec::ule_way(
            CellKind::Sram10T,
            1.0,
            Protection::None,
            Protection::None,
        ));
        let mut c = HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule);
        c.access(0, false);
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: 1 << 5,
                value: !stored & (1 << 5),
            },
        );
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.silent, 1, "unprotected fault must corrupt silently");
        assert_eq!(out.corrected, 0);
    }

    #[test]
    fn dected_corrects_hard_fault_plus_soft_error() {
        // Scenario B at ULE: 8T + DECTED handles a stuck bit AND a
        // soft error in the same word — the paper's justification for
        // DECTED.
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::Secded); 7];
        ways.push(crate::config::WaySpec::ule_way(
            CellKind::Sram8T,
            1.9,
            Protection::Secded,
            Protection::Dected,
        ));
        let mut c = HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule);
        c.access(0, false);
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: 1 << 7,
                value: !stored & (1 << 7),
            },
        );
        c.inject_soft_error(slot, 19);
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.corrected, 2, "DECTED must fix hard+soft together");
        assert_eq!(out.silent, 0);
    }

    #[test]
    fn secded_detects_but_cannot_fix_double_fault() {
        let mut c = hybrid_a_proposal();
        c.access(0, false);
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: (1 << 2) | (1 << 9),
                value: !stored & ((1 << 2) | (1 << 9)),
            },
        );
        let out = c.access(0, false);
        assert_eq!(out.detected, 1);
        assert_eq!(out.silent, 0, "detected errors are not silent");
    }

    #[test]
    fn mode_switch_flushes() {
        let mut c = hybrid_a_proposal();
        c.access(0, true);
        let wb = c.set_mode(Mode::Hp);
        assert_eq!(wb, 1, "dirty line written back on switch");
        assert!(!c.access(0, false).hit, "flush invalidates");
        assert_eq!(c.enabled_ways(), 8);
    }

    #[test]
    fn tag_faults_in_unprotected_way_cause_misses_not_lies() {
        let mut c = cache();
        c.access(0, false);
        let tag_slot = WordSlot {
            way: 0,
            set: 0,
            slot: c.config().words_per_line(),
        };
        // Find which way holds the line.
        let way = (0..8)
            .find(|&w| c.valid[c.line_index(w, 0)])
            .expect("line filled");
        let tag_slot = WordSlot { way, ..tag_slot };
        let stored = c.read_stored(tag_slot);
        c.set_stuck_bits(
            tag_slot,
            StuckBits {
                mask: 1,
                value: !stored & 1,
            },
        );
        // The corrupted tag no longer matches: miss (refill), not a
        // false hit.
        let out = c.access(0, false);
        assert!(!out.hit);
    }

    #[test]
    fn value_for_is_deterministic_and_word_stable() {
        assert_eq!(value_for(0x1234), value_for(0x1234));
        assert_ne!(value_for(0x1234), value_for(0x1238));
        assert!(value_for(u64::MAX) <= u32::MAX as u64);
    }

    #[test]
    fn verification_address_honors_configured_word_size() {
        // Regression: the payload address used to be hard-coded to
        // 4-byte words (`addr / 4 * 4`) while the slot index honored
        // `word_bits`, so any non-32-bit word config miscounted clean
        // reads as silent corruptions at word-interior offsets.
        for word_bits in [16u32, 64] {
            let mut cfg = SystemConfig::uniform_6t().il1;
            cfg.word_bits = word_bits;
            cfg.validate().expect("geometry stays valid");
            let mut c = HybridCache::new(cfg, Mode::Hp);
            // Force the verifying slow path: the fast path skips the
            // payload check entirely.
            c.set_force_slow_path(true);
            for addr in (0..512).step_by(4) {
                c.access(addr, true);
            }
            for addr in (0..512).step_by(4) {
                let out = c.access(addr, false);
                assert_eq!(
                    out.silent, 0,
                    "{word_bits}-bit words: false corruption at {addr:#x}"
                );
                assert_eq!(out.detected, 0);
            }
            assert_eq!(c.stats().silent_corruptions, 0);
        }
    }

    fn two_ule_ways_cache(mode: Mode) -> HybridCache {
        // Ways 0-1 are HP-only (disabled at ULE), ways 2-3 stay on.
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::None); 2];
        for _ in 0..2 {
            ways.push(crate::config::WaySpec::ule_way(
                CellKind::Sram8T,
                1.8,
                Protection::None,
                Protection::None,
            ));
        }
        HybridCache::new(CacheConfig::l1_8kb(ways), mode)
    }

    #[test]
    fn victim_ties_break_to_the_lowest_index_enabled_way() {
        let mut c = two_ule_ways_cache(Mode::Ule);
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        // Invalid lines: the first *enabled* way wins, skipping the
        // HP ways that are gated off at ULE.
        c.access(0, false);
        assert!(
            c.valid[c.line_index(2, 0)],
            "lowest enabled way fills first"
        );
        assert!(
            !c.valid[c.line_index(0, 0)],
            "disabled ways must be skipped"
        );
        c.access(sets * line, false);
        assert!(c.valid[c.line_index(3, 0)]);
        // Stage an exact LRU tie between the two valid lines: the
        // documented tie-break evicts the lowest-index enabled way.
        let (li2, li3) = (c.line_index(2, 0), c.line_index(3, 0));
        c.lru_stamps[li2] = 7;
        c.lru_stamps[li3] = 7;
        let survivor_tag = c.tags[li3];
        c.access(2 * sets * line, false);
        assert_eq!(
            c.tags[li3], survivor_tag,
            "higher-index way must survive the tie"
        );
        assert_ne!(c.tags[li2], 0, "way 2 holds the new line");
        // At HP every way participates again: a fresh cache fills
        // way 0 first.
        let mut c = two_ule_ways_cache(Mode::Hp);
        c.access(0, false);
        assert!(c.valid[c.line_index(0, 0)]);
    }

    #[test]
    fn fast_and_slow_paths_agree_counter_for_counter() {
        let mut fast = cache();
        let mut slow = cache();
        slow.set_force_slow_path(true);
        assert!(fast.is_fault_free());
        let sets = fast.config().sets();
        let line = fast.config().line_bytes;
        // Hits, misses, conflict evictions, dirty writebacks.
        let mut addrs = Vec::new();
        for i in 0u64..600 {
            addrs.push((i.wrapping_mul(2654435761) % (12 * sets * line)) & !3);
        }
        for (i, &addr) in addrs.iter().enumerate() {
            let is_write = i % 3 == 1;
            let a = fast.access(addr, is_write);
            let b = slow.access(addr, is_write);
            assert_eq!(a, b, "outcome diverged at access {i} ({addr:#x})");
        }
        assert_eq!(fast.stats(), slow.stats());
        // And the stored state is identical too: arming the slow path
        // afterwards reads back every line cleanly.
        fast.set_force_slow_path(true);
        for &addr in &addrs {
            let out = fast.access(addr, false);
            assert_eq!(out.silent, 0);
            assert_eq!(out.detected, 0);
        }
    }

    fn ws(way: usize, set: u64, slot: u64) -> WordSlot {
        WordSlot { way, set, slot }
    }

    /// The way holding the line at `addr` (which must be resident).
    fn resident_way(c: &HybridCache, addr: u64) -> usize {
        let (set, tag) = c.index(addr);
        (0..c.num_ways)
            .find(|&w| {
                let li = c.line_index(w, set);
                c.valid[li] && c.tags[li] == tag
            })
            .expect("line resident")
    }

    #[test]
    fn a_store_clears_the_flip_on_its_word() {
        let mut c = cache();
        c.set_force_slow_path(true);
        c.access(0, false);
        c.inject_soft_error(ws(resident_way(&c, 0), 0, 1), 3);
        assert_eq!(c.access(4, false).silent, 1, "the flip is read");
        assert!(c.access(4, true).hit);
        assert!(c.is_fault_free(), "the store overwrote the only flip");
        let out = c.access(4, false);
        assert_eq!((out.silent, out.detected), (0, 0), "read after store");
    }

    #[test]
    fn a_fill_drops_every_flip_on_its_line() {
        let mut c = hybrid_a_proposal();
        c.set_force_slow_path(true);
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        c.access(0, false);
        for slot in [0, 3, 7] {
            for bit in [1, 30] {
                c.inject_soft_error(ws(7, 0, slot), bit);
            }
        }
        assert!(!c.is_fault_free());
        // The ULE way is direct-mapped at ULE: the conflicting line
        // evicts and refills it.
        assert!(!c.access(sets * line, false).hit);
        assert!(c.is_fault_free(), "the refill dropped every flip");
        for offset in (0..line).step_by(4) {
            let out = c.access(sets * line + offset, false);
            assert!(out.hit);
            assert_eq!((out.corrected, out.detected, out.silent), (0, 0, 0));
        }
    }

    #[test]
    fn a_mode_switch_restores_fault_freedom() {
        let mut c = hybrid_a_proposal();
        c.access(0, true);
        // Flips on a valid line, an invalid line and a way gated off
        // at ULE.
        c.inject_soft_error(ws(7, 0, 2), 4);
        c.inject_soft_error(ws(7, 9, 8), 0);
        c.inject_soft_error(ws(1, 3, 5), 7);
        assert!(!c.is_fault_free());
        assert_eq!(c.set_mode(Mode::Hp), 1);
        assert!(c.is_fault_free(), "the flush dropped every flip");
    }

    #[test]
    fn a_tag_flip_is_seen_by_the_next_lookup() {
        // Unprotected tag: the flipped tag no longer matches.
        let mut c = cache();
        c.access(0, false);
        let way = resident_way(&c, 0);
        c.inject_soft_error(ws(way, 0, 8), 0);
        assert!(!c.access(0, false).hit, "flipped plain tag must miss");
        // SECDED tag: the flip is corrected and the line still hits.
        let mut c = hybrid_a_proposal();
        c.access(0, false);
        c.inject_soft_error(ws(7, 0, 8), 5);
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.corrected, 1, "SECDED corrects the tag flip");
    }

    #[test]
    fn a_false_tag_hit_reads_the_resident_lines_data() {
        for force in [false, true] {
            let mut c = cache();
            c.set_force_slow_path(force);
            // Lines `a` and `b` share set 0; their tags are 0 and 1.
            let (a, b) = (0, c.config().sets() * c.config().line_bytes);
            c.access(a, false);
            // Bit 0 of `a`'s unprotected tag stuck at 1 reads as `b`'s.
            let way = resident_way(&c, a);
            c.set_stuck_bits(ws(way, 0, 8), StuckBits { mask: 1, value: 1 });
            let out = c.access(b, false);
            assert!(out.hit, "the faulty tag matches b");
            assert_eq!(out.silent, 1, "b is handed a's data");
            // A store through the false hit lands `b`'s payload in
            // `a`'s line: that word reads back clean, the rest of the
            // line still holds `a`'s data.
            assert!(c.access(b + 4, true).hit);
            assert_eq!(c.access(b + 4, false).silent, 0);
            assert_eq!(c.access(b + 8, false).silent, 1);
        }
    }

    #[test]
    fn fault_free_tracking_arms_and_disarms_the_fast_path() {
        let mut c = cache();
        assert!(c.is_fault_free());
        c.access(0, false);
        let slot = WordSlot {
            way: 0,
            set: 0,
            slot: 0,
        };
        // Installing and removing a stuck bit toggles the state.
        c.set_stuck_bits(slot, StuckBits { mask: 1, value: 0 });
        assert!(!c.is_fault_free());
        c.set_stuck_bits(slot, StuckBits { mask: 0, value: 0 });
        assert!(c.is_fault_free());
        // A soft error disarms the fast path and is actually seen by
        // the unprotected gated path...
        let way = (0..8)
            .find(|&w| c.valid[c.line_index(w, 0)])
            .expect("line filled");
        let hit_slot = WordSlot {
            way,
            set: 0,
            slot: 0,
        };
        c.inject_soft_error(hit_slot, 3);
        assert!(!c.is_fault_free());
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.silent, 1, "flip must be delivered silently (6T/none)");
        // ...and the flush on a mode switch restores the fast path.
        c.set_mode(Mode::Hp);
        assert!(c.is_fault_free());
    }
}
