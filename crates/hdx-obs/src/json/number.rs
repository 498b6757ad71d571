//! The shortest round-trip `f64` writer behind [`number_into`]: Ryū
//! (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI 2018) for the
//! digits, and the layout of std's `Display` for the text.
//!
//! Ryū scales the value's rounding interval to decimal with one 64×128-bit
//! multiply per bound, by a 125-bit `5^i` or `2^k/5^q` taken from a table,
//! then drops digits while both bounds still differ. The tables are
//! computed at compile time from exact powers of five ([`TABLES`]).
//!
//! Two choices make the digits std's (its Grisu/Dragon shortest mode):
//! - Of the shortest digit strings inside the interval, the closest to the
//!   value wins, and an exact halfway cut rounds **up**:
//!   `1125899906842624.25` writes `1125899906842624.3`. Ryū's reference
//!   rounds such cuts to even, which would write `…624.2`; with ties going
//!   up it needs no record of whether the dropped digits were all zero.
//! - The interval's bounds belong to it when the mantissa is even (they
//!   read back as the value under round-half-even parsing).

/// Bits of every entry of both tables.
const POW5_BITS: u32 = 125;

/// Entries of the `2^k / 5^q` table: `q` reaches 290 at the largest
/// exponent.
const POW5_INV_LEN: usize = 291;

/// Entries of the `5^i` table: `i` reaches 325 at the smallest subnormal.
const POW5_LEN: usize = 326;

/// 64-bit limbs of the integers the tables are cut from: `5^325 < 2^755`, and
/// `2^k` reaches `2^798` for `q = 290`.
const LIMBS: usize = 13;

/// The exponent `M` of the dividend `2^M` the inverse table is cut from.
const TOP_BIT: u32 = 64 * LIMBS as u32 - 1;

/// A little-endian multi-limb unsigned integer.
type Big = [u64; LIMBS];

/// `x · m`, for `x · m < 2^(64·LIMBS)`.
const fn big_mul(x: Big, m: u64) -> Big {
    let mut out = [0; LIMBS];
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let wide = x[i] as u128 * m as u128 + carry;
        out[i] = wide as u64;
        carry = wide >> 64;
        i += 1;
    }
    out
}

/// `⌊x / d⌋`.
const fn big_div(x: Big, d: u64) -> Big {
    let mut out = [0; LIMBS];
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let wide = (rem << 64) | x[i] as u128;
        out[i] = (wide / d as u128) as u64;
        rem = wide % d as u128;
    }
    out
}

/// The number of significant bits of `x`.
const fn big_bits(x: Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as u32 + 64 - x[i].leading_zeros();
        }
    }
    0
}

/// The 128 bits of `x` from bit `shift` up: `⌊x / 2^shift⌋ mod 2^128`.
const fn big_bits_from(x: Big, shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let offset = shift % 64;
    let mut out = 0u128;
    let mut k = 0;
    // Three limbs cover 128 bits at any offset.
    while k < 3 {
        let i = limb + k;
        if i < LIMBS {
            let part = x[i] as u128;
            let at = 64 * k as u32;
            if at >= offset {
                let up = at - offset;
                if up < 128 {
                    out |= part << up;
                }
            } else {
                out |= part >> (offset - at);
            }
        }
        k += 1;
    }
    out
}

/// `(POW5_INV, POW5)`: `POW5_INV[q] = ⌊2^k / 5^q⌋ + 1` with
/// `k = bits(5^q) − 1 + 125`, and `POW5[i]` the top 125 bits of `5^i`
/// (`5^i` shifted left to 125 bits while it is shorter).
///
/// `⌊2^k / 5^q⌋` is `⌊⌊2^M / 5^q⌋ / 2^(M−k)⌋`, and `⌊2^M / 5^q⌋` is `2^M`
/// divided by 5 `q` times, so computing the tables needs no long division.
const fn tables() -> ([u128; POW5_INV_LEN], [u128; POW5_LEN]) {
    let mut inv = [0; POW5_INV_LEN];
    let mut pow = [0; POW5_LEN];
    let mut five = [0; LIMBS];
    five[0] = 1;
    let mut quotient = [0; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_LEN {
        let bits = big_bits(five);
        pow[i] = if bits > POW5_BITS {
            big_bits_from(five, bits - POW5_BITS)
        } else {
            big_bits_from(five, 0) << (POW5_BITS - bits)
        };
        if i < POW5_INV_LEN {
            let k = bits - 1 + POW5_BITS;
            inv[i] = big_bits_from(quotient, TOP_BIT - k) + 1;
        }
        five = big_mul(five, 5);
        quotient = big_div(quotient, 5);
        i += 1;
    }
    (inv, pow)
}

/// The multiplier tables, built at compile time.
static TABLES: ([u128; POW5_INV_LEN], [u128; POW5_LEN]) = tables();

/// `⌈log₂ 5^e⌉` for `e ≥ 1`, and 1 for `e = 0`: the bit length of `5^e`
/// (exact for `e ≤ 3528`).
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log₁₀ 2^e⌋` (exact for `e ≤ 1650`).
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋` (exact for `e ≤ 2620`).
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Whether `5^p` divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for `64 ≤ j < 128` (every exponent's `j` is; the
/// tests reach each one), where `m < 2^56` and `mul < 2^126`, so the
/// partial products fit.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    debug_assert!((64..128).contains(&j), "j = {j}");
    let low = (mul as u64 as u128) * m as u128;
    let high = (mul >> 64) * m as u128;
    (((low >> 64) + high) >> ((j - 64) & 63)) as u64
}

/// The shortest decimal `digits · 10^exp` that reads back as the positive
/// finite `f64` with these mantissa and biased-exponent fields, the
/// closest to it when several are that short, ties rounded up.
fn shortest(mantissa: u64, exponent: u32) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    // Two more bits for the interval's bounds, a quarter unit apart.
    let (e2, m2) = if exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, mantissa)
    } else {
        (
            exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;
    // The value and its bounds, in units of 2^e2; the lower bound is half
    // as far when the mantissa is a power of two (the gap below is half).
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(mantissa != 0 || exponent <= 1);
    let (inv, pow) = &TABLES;
    let mut vm_trailing_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let e2 = e2 as u32;
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = POW5_BITS + pow5_bits(q) - 1 + q - e2;
        let mul = inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // At most one of mv, mp and mm is a multiple of 5. When it is mv,
        // only the value's own digits can end in zeros, which matters to a
        // round-half-even cut alone.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let e2 = e2.unsigned_abs();
        let q = log10_pow5(e2) - u32::from(e2 > 1);
        e10 = q as i32 - e2 as i32;
        let i = e2 - q;
        let j = q + POW5_BITS - pow5_bits(i);
        let mul = pow[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            // mv has at least q trailing zero bits, and so do mm (when it
            // is even) and mp.
            if accept_bounds {
                vm_trailing_zeros = mm.is_multiple_of(2);
            } else {
                vp -= 1;
            }
        }
    }
    // Drop digits while the bounds still differ in what remains.
    let mut removed = 0;
    let digits = if vm_trailing_zeros {
        // The lower bound is exact and in the interval: it may end in
        // zeros that can go too.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_trailing_zeros) || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (digits, e10 + removed)
}

/// `"00"`, `"01"`, …, `"99"`: two digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// `10^k` for every `k` a 17-digit count can need.
const POW10: [u64; 18] = {
    let mut pow = [1; 18];
    let mut k = 1;
    while k < 18 {
        pow[k] = pow[k - 1] * 10;
        k += 1;
    }
    pow
};

/// The number of decimal digits of `0 < v < 10^17`: the bit length's
/// estimate, corrected by one comparison.
fn decimal_len(v: u64) -> usize {
    let guess = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    guess + usize::from(v >= POW10[guess])
}

/// Where the text starts in the buffer. Digits are written 17 at a time,
/// leading zeros included, so the bytes before it take the excess.
const TEXT: usize = 16;

/// The longest text laid out in the buffer; a longer one (a run of more
/// than a dozen zeros) is appended a part at a time.
const WIDTH: usize = 32;

/// The text buffer, aligned so that its ASCII check runs a word at a time.
#[repr(align(16))]
struct Buf([u8; TEXT + WIDTH]);

/// Writes the two digits of `pair < 100` at `at`.
#[inline(always)]
fn put_pair(buf: &mut [u8], at: usize, pair: u32) {
    let pair = 2 * pair as usize;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
}

/// Writes `v < 10^8` as exactly eight digits ending at `end`.
#[inline(always)]
fn put_eight(buf: &mut [u8], end: usize, v: u32) {
    let (high, low) = (v / 10_000, v % 10_000);
    put_pair(buf, end - 8, high / 100);
    put_pair(buf, end - 6, high % 100);
    put_pair(buf, end - 4, low / 100);
    put_pair(buf, end - 2, low % 100);
}

/// Writes `digits < 10^17` as exactly 17 digits ending at `end`.
#[inline(always)]
fn put_digits(buf: &mut [u8], end: usize, digits: u64) {
    let (top, low) = ((digits / 100_000_000) as u32, (digits % 100_000_000) as u32);
    put_eight(buf, end, low);
    put_eight(buf, end - 8, top % 100_000_000);
    buf[end - 17] = b'0' + (top / 100_000_000) as u8;
}

/// Appends `x` exactly as `write!(out, "{x}")` would: std's `Display` of an
/// `f64`.
///
/// - The digits are the shortest that read back as `x`; of several that
///   short, the closest to `x`, and on an exact halfway cut the larger.
/// - The notation is decimal, never an exponent: `1e-7` writes
///   `0.0000001` and `1e21` writes `1` and 21 zeros.
/// - An integer gets no `.0`; negative zero writes `-0`.
/// - NaN writes `NaN`, and the infinities `inf` and `-inf`.
pub fn number_into(out: &mut String, x: f64) {
    let bits = x.to_bits();
    let negative = bits >> 63 != 0;
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = ((bits >> 52) & 0x7ff) as u32;
    if exponent == 0x7ff {
        out.push_str(match (mantissa != 0, negative) {
            (true, _) => "NaN",
            (false, false) => "inf",
            (false, true) => "-inf",
        });
        return;
    }
    if mantissa == 0 && exponent == 0 {
        out.push_str(if negative { "-0" } else { "0" });
        return;
    }
    let (digits, exp) = shortest(mantissa, exponent);
    let len = decimal_len(digits);
    // The value is 0.DIGITS · 10^point; its text is laid out from TEXT,
    // after the sign, in a buffer of zeros.
    let point = exp + len as i32;
    let body = TEXT + usize::from(negative);
    let mut buf = Buf([0; TEXT + WIDTH]);
    let buf = &mut buf.0;
    buf.fill(b'0');
    let end = if point <= 0 {
        // 0.000DIGITS
        let end = body + 2 + point.unsigned_abs() as usize + len;
        if end > TEXT + WIDTH {
            return push_long(out, negative, digits, len, point);
        }
        put_digits(buf, end, digits);
        buf[body + 1] = b'.';
        end
    } else if (point as usize) < len {
        // DIG.ITS: the digits one place right, then the integer part back,
        // by a fixed-size copy and a select rather than a call to move
        // `point` bytes.
        let point = point as usize;
        let end = body + len + 1;
        put_digits(buf, end, digits);
        let mut next = [0; 16];
        next.copy_from_slice(&buf[body + 1..body + 17]);
        for (k, (to, from)) in buf[body..body + 16].iter_mut().zip(next).enumerate() {
            if k < point {
                *to = from;
            }
        }
        buf[body + point] = b'.';
        end
    } else {
        // DIGITS000
        let end = body + point as usize;
        if end > TEXT + WIDTH {
            return push_long(out, negative, digits, len, point);
        }
        put_digits(buf, body + len, digits);
        end
    };
    if negative {
        buf[TEXT] = b'-';
    }
    // Every byte is an ASCII digit, `.` or `-`. Appending the whole window
    // and cutting it back is a fixed-size copy, cheaper than one of the
    // text's own length.
    let keep = out.len() + end - TEXT;
    let window = std::str::from_utf8(&buf[TEXT..]).ok();
    if let Some(text) = window.and_then(|text| text.get(..WIDTH)) {
        out.push_str(text);
        out.truncate(keep);
    }
}

/// Zeros for the runs too long for the buffer.
const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// Appends `count` zeros.
fn push_zeros(out: &mut String, mut count: usize) {
    while count > 0 {
        let run = count.min(ZEROS.len());
        out.push_str(ZEROS.get(..run).unwrap_or_default());
        count -= run;
    }
}

/// Appends the texts too long for the buffer, a part at a time: a tiny
/// value's `0.` and run of zeros, or a huge one's zeros after its digits.
fn push_long(out: &mut String, negative: bool, digits: u64, len: usize, point: i32) {
    if negative {
        out.push('-');
    }
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
    }
    let mut buf = Buf([b'0'; TEXT + WIDTH]);
    put_digits(&mut buf.0, TEXT + WIDTH, digits);
    let text = std::str::from_utf8(&buf.0[TEXT..]).unwrap_or_default();
    out.push_str(text.get(WIDTH - len..).unwrap_or_default());
    if point > 0 {
        push_zeros(out, point as usize - len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// What std writes.
    fn display(x: f64) -> String {
        let mut out = String::new();
        let _ = write!(out, "{x}");
        out
    }

    /// What the writer appends to a non-empty buffer.
    fn written(x: f64) -> String {
        let mut out = String::from("[");
        number_into(&mut out, x);
        out.split_off(1)
    }

    #[track_caller]
    fn check(x: f64) {
        assert_eq!(written(x), display(x), "bits {:#018x}", x.to_bits());
    }

    #[test]
    fn tables_hold_exact_powers_of_five() {
        let (inv, pow) = &TABLES;
        // 5^0..5^53 fit in 125 bits: each entry is the power shifted to 125.
        let mut five = 1u128;
        for (i, &entry) in pow.iter().enumerate().take(54) {
            let bits = 128 - five.leading_zeros();
            assert_eq!(entry, five << (POW5_BITS - bits), "5^{i}");
            assert_eq!(pow5_bits(i as u32), bits, "bits of 5^{i}");
            five *= 5;
        }
        // 2^125 / 5^0 + 1, and 2^(2 + 125) / 5 rounded up past the floor.
        assert_eq!(inv[0], (1 << 125) + 1);
        assert_eq!(inv[1], (1u128 << 127) / 5 + 1);
        // Every entry has 125 bits (the inverse: 125 or 126 with the +1).
        assert!(pow.iter().all(|&p| 128 - p.leading_zeros() == POW5_BITS));
        assert!(inv
            .iter()
            .all(|&p| (125..=126).contains(&(128 - p.leading_zeros()))));
        // The bit-length formula agrees with the exact powers the tables
        // were cut from, for every index they hold.
        let mut big = [0; LIMBS];
        big[0] = 1;
        for i in 0..POW5_LEN as u32 {
            assert_eq!(pow5_bits(i), big_bits(big), "bits of 5^{i}");
            big = big_mul(big, 5);
        }
    }

    #[test]
    fn special_values_and_layouts() {
        for (x, want) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (1.0, "1"),
            (-1.5, "-1.5"),
            (0.1, "0.1"),
            (1e-7, "0.0000001"),
            (1e21, "1000000000000000000000"),
            (123.456, "123.456"),
            (f64::NAN, "NaN"),
            (-f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            // 2^50 + 1/4 and + 3/4: exact halfway cuts between 17-digit
            // candidates, which round up.
            ((1u64 << 50) as f64 + 0.25, "1125899906842624.3"),
            ((1u64 << 50) as f64 + 0.75, "1125899906842624.8"),
        ] {
            assert_eq!(written(x), want, "{want}");
            check(x);
        }
    }

    #[test]
    fn extremes_match_display() {
        for x in [
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE - f64::from_bits(1),
            5e-324,
            1.7976931348623157e308,
        ] {
            check(x);
            check(-x);
        }
    }

    #[test]
    fn every_power_of_two_and_ten_matches_display() {
        for e in -1074..=1023 {
            check(2f64.powi(e));
        }
        for e in -323..=308 {
            let x: f64 = format!("1e{e}").parse().unwrap_or_default();
            check(x);
            check(f64::from_bits(x.to_bits() + 1));
            check(f64::from_bits(x.to_bits() - 1));
        }
    }

    #[test]
    fn integers_around_2_pow_53_match_display() {
        let base = 1u64 << 53;
        for k in 0..4096 {
            check((base - 2048 + k) as f64);
            check(((base << 1) - 4096 + 2 * k) as f64);
        }
    }

    #[test]
    fn halfway_cuts_in_2_pow_50_match_display() {
        // Every double in [2^50, 2^51) is a multiple of 1/4: those ending
        // in .25 and .75 sit exactly between two 17-digit candidates.
        let base = (1u64 << 50) as f64;
        for k in 0..100_000u64 {
            check(f64::from_bits(base.to_bits() + k));
            check(f64::from_bits(base.to_bits() + (1 << 51) - 1 - k));
        }
    }

    /// A splitmix64 stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        /// 4096 random bit patterns per case: a million at the default case
        /// count, `PROPTEST_CASES=25600` for a hundred million.
        #[test]
        fn random_bit_patterns_match_display(seed in proptest::prelude::any::<u64>()) {
            let mut state = seed;
            let mut out = String::new();
            let mut want = String::new();
            for _ in 0..4096 {
                let x = f64::from_bits(mix(&mut state));
                out.clear();
                want.clear();
                number_into(&mut out, x);
                let _ = write!(want, "{x}");
                proptest::prop_assert_eq!(&out, &want, "bits {:#018x}", x.to_bits());
            }
        }
    }
}
