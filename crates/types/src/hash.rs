//! The workspace's hashers.
//!
//! [`FxHasher`] is the cheap one, for tables a crate builds itself from
//! keys it trusts: small fixed-shape ids, its own inventory's names.
//! `HashMap`'s default (SipHash) is DoS-resistant and measurable on a map
//! probed per candidate or per record; keep it for keys from outside.
//!
//! [`StableHasher`] is the pinned one, for every hash that decides a seed,
//! a stream or an order.

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

/// SipHash-1-3 with zero keys over the bytes a value's `Hash` writes, for
/// every hash that decides a seed, a stream or an order: the simulator's
/// per-shard and per-feed generators, the order of one instant's samples,
/// the collector's ingest epoch. It is the algorithm
/// `std::collections::hash_map::DefaultHasher` runs on rustc 1.95, and it
/// gives the same values there; std does not promise to keep that
/// algorithm across releases, this type does.
///
/// Integers are written little-endian at their own width, a `usize` as a
/// `u64`, and a `str` (see [`StableHasher::write_str`]) as its bytes and
/// then `0xff`, which is what `Hash for str` writes.
#[derive(Clone)]
pub struct StableHasher {
    v: [u64; 4],
    /// Bytes written past the last whole word, little-endian.
    tail: u64,
    /// Bytes written in total.
    len: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        // "somepseudorandomlygeneratedbytes" xor the zero key.
        StableHasher {
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            len: 0,
        }
    }
}

impl StableHasher {
    pub fn new() -> Self {
        Self::default()
    }

    /// A string as `Hash for str` writes it: its bytes, then `0xff`.
    pub fn write_str(&mut self, s: &str) {
        use std::hash::Hasher;
        self.write(s.as_bytes());
        self.write_u8(0xff);
    }

    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }

    /// One compression round over a message word.
    fn compress(v: &mut [u64; 4], m: u64) {
        v[3] ^= m;
        Self::round(v);
        v[0] ^= m;
    }
}

impl std::hash::Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.tail |= u64::from(b) << (8 * (self.len % 8));
            self.len += 1;
            if self.len.is_multiple_of(8) {
                Self::compress(&mut self.v, self.tail);
                self.tail = 0;
            }
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write(&[n]);
    }

    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut v = self.v;
        Self::compress(&mut v, self.tail | ((self.len as u64) << 56));
        v[2] ^= 0xff;
        for _ in 0..3 {
            Self::round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

#[cfg(test)]
mod tests {
    use super::StableHasher;
    use std::hash::{Hash, Hasher};

    /// Values `DefaultHasher` gave for the same writes on rustc 1.95, in
    /// the shapes the call sites use: a chaos stream's (seed, feed,
    /// cycle), a background shard's (seed, kind, id), a perf and a CDN
    /// sample's digest, an ingest epoch's counters. A drift here would
    /// move every simulated stream and every results file.
    fn digest(f: impl FnOnce(&mut StableHasher)) -> u64 {
        let mut h = StableHasher::new();
        f(&mut h);
        h.finish()
    }

    /// Values `DefaultHasher` gave for the same writes on rustc 1.95, in
    /// the shapes the call sites use: a chaos stream's (seed, feed,
    /// cycle), a background shard's (seed, kind, id), a perf and a CDN
    /// sample's digest, an ingest epoch's counters. A drift here would
    /// move every simulated stream and every results file.
    #[test]
    fn pinned_vectors() {
        assert_eq!(digest(|_| {}), 0xd1fb_a762_150c_532c);
        let chaos = |seed, feed, cycle| {
            digest(|h| {
                h.write_u64(seed);
                h.write_str(feed);
                h.write_usize(cycle);
            })
        };
        assert_eq!(chaos(7, "syslog", 0), 0xbf7c_aa79_3853_bd2d);
        assert_eq!(chaos(1013, "snmp", 239), 0xbcca_25ea_6bf6_10ea);
        let shard = |seed, kind, id| {
            digest(|h| {
                h.write_u64(seed);
                h.write_str(kind);
                h.write_u64(id);
            })
        };
        assert_eq!(shard(2026, "noise", 3), 0xbb94_80f5_2ed8_a239);
        assert_eq!(shard(2026, "serverlog", 41), 0xa957_ac6a_8699_79c7);
        let perf = digest(|h| {
            h.write_u32(4);
            h.write_u32(17);
            h.write_u8(1);
            h.write_u64(2.5f64.to_bits());
        });
        assert_eq!(perf, 0xc359_5806_1700_0cbe);
        let cdn = digest(|h| {
            h.write_u32(0);
            h.write_u32(12);
            h.write_u64(35.0f64.to_bits());
            h.write_u64(92.5f64.to_bits());
        });
        assert_eq!(cdn, 0x4700_41f3_a74e_a664);
        let epoch = digest(|h| {
            0x6772_6361_5f65_706fu64.hash(h);
            for n in [3usize, 0, 41] {
                n.hash(h);
            }
            Some(1_262_304_000i64).hash(h);
            None::<i64>.hash(h);
            0usize.hash(h);
        });
        assert_eq!(epoch, 0x8a83_7157_acea_873c);
    }

    #[test]
    fn a_str_writes_its_bytes_then_0xff() {
        let want = digest(|h| h.write(b"cdn\xff"));
        assert_eq!(digest(|h| h.write_str("cdn")), want);
        assert_eq!(digest(|h| "cdn".hash(h)), want);
    }
}
