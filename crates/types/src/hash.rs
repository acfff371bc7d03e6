//! The workspace's cheap hasher, for tables a crate builds itself from
//! keys it trusts: small fixed-shape ids, its own inventory's names.
//! `HashMap`'s default (SipHash) is DoS-resistant and measurable on a map
//! probed per candidate or per record; keep it for keys from outside.

/// FxHash-style rotate-xor-multiply. Not for fingerprints or anything
/// else whose collisions lose data: it is weak on short structured keys,
/// which costs a map a longer probe and nothing more.
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps and sets.
pub type FxBuild = std::hash::BuildHasherDefault<FxHasher>;
