//! Decimal digits for the JSON writer of [`crate::json`]: exact integers
//! two digits at a time, and the shortest round-trip digits of an `f64`
//! by Ryu (Adams, "Ryū: fast float-to-string conversion", PLDI 2018),
//! laid out byte for byte as `f64`'s `Display` lays them out: fixed
//! notation at every magnitude, `-` on negative values, no `.0` on
//! integers.
//!
//! [`shortest`] decides only normal values that are not powers of two
//! and that stay off Ryu's exact branch (the scaled value or its lower
//! bound ending in as many zeros as the digits it drops). There the
//! shortest digits inside the rounding interval are found without ties
//! or boundary cases, and the closest of them is the one the standard
//! library writes too. Zero, subnormals, powers of two (whose lower gap
//! is half the upper one), the exact branch and layouts longer than
//! [`LAYOUT_BYTES`] return `None`. The caller writes a non-negative
//! integer up to 2^53 with [`integer`], and any other `None` with `{}`.

/// Room for the longest layout [`shortest`] writes: a sign and 31 more
/// bytes, e.g. `0.`, 12 zeros and 17 digits. [`integer`]'s 20 digits at
/// most fit too.
pub(crate) const LAYOUT_BYTES: usize = 32;

/// `f64`'s `Display` bytes for `v`, laid out in `buf`, or `None` where
/// the fast path does not decide them (see the module docs). Every
/// layout is ASCII.
pub(crate) fn shortest(v: f64, buf: &mut [u8; LAYOUT_BYTES]) -> Option<&[u8]> {
    let (significand, exp) = shortest_digits(v.to_bits())?;
    let mut all_digits = [0; 20];
    let first = digits_ending_at(&mut all_digits, significand);
    let digits = &all_digits[first..];
    let n = digits.len();
    // Digits before the decimal point; none or fewer than none put the
    // point and `-point` zeros in front of the digits.
    let point = n as i32 + exp;
    let sign = usize::from(v < 0.0);
    let len = sign
        + match point {
            ..=0 => 2 + point.unsigned_abs() as usize + n,
            p if (p as usize) < n => n + 1,
            p => p as usize,
        };
    if len > LAYOUT_BYTES {
        return None;
    }
    buf[0] = b'-';
    let body = &mut buf[sign..len];
    if point <= 0 {
        let zeros = body.len() - n;
        body[..zeros].fill(b'0');
        body[1] = b'.';
        body[zeros..].copy_from_slice(digits);
    } else if (point as usize) < n {
        let (int, frac) = digits.split_at(point as usize);
        body[..int.len()].copy_from_slice(int);
        body[int.len()] = b'.';
        body[int.len() + 1..].copy_from_slice(frac);
    } else {
        body[..n].copy_from_slice(digits);
        body[n..].fill(b'0');
    }
    Some(&buf[..len])
}

/// The decimal digits of `v`, laid out in `buf`.
pub(crate) fn integer(v: u64, buf: &mut [u8; LAYOUT_BYTES]) -> &[u8] {
    let first = digits_ending_at(buf, v);
    &buf[first..]
}

/// "00" to "99", the pairs [`digits_ending_at`] copies.
static PAIRS: [u8; 200] = pairs();

const fn pairs() -> [u8; 200] {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
}

/// Writes the decimal digits of `v` to the end of `buf`, two at a time,
/// and returns where they start.
fn digits_ending_at(buf: &mut [u8], mut v: u64) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Of the shortest decimals strictly inside the rounding interval of the
/// `f64` with `bits`, the one closest to it, as `(digits, exp)` with
/// value `digits · 10^exp`; `None` off the fast path.
fn shortest_digits(bits: u64) -> Option<(u64, i32)> {
    let fraction = bits & ((1 << 52) - 1);
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 || biased == 0x7ff || fraction == 0 {
        return None;
    }
    // The value is mv · 2^e2, scaled by 4 so that both interval bounds,
    // half an ulp either side, are the integers mv ± 2.
    let e2 = biased - 1023 - 52 - 2;
    let mv = ((1 << 52) | fraction) << 2;
    let accept_bounds = fraction & 1 == 0;
    // vr, vp, vm: the value and its bounds times 10^-e10, rounded down.
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let shift = -e2 + q as i32 + pow5_bits(q as i32) - 1 + ENTRY_BITS;
        let mul = POW5_INV[q as usize];
        [vr, vp, vm] = [mv, mv + 2, mv - 2].map(|m| mul_shift(m, mul, shift));
        e10 = q as i32;
        if q <= 21 {
            // At most one of mv - 2, mv and mv + 2 is a multiple of 5.
            if mv.is_multiple_of(5) {
                if multiple_of_pow5(mv, q) {
                    return None;
                }
            } else if accept_bounds {
                if multiple_of_pow5(mv - 2, q) {
                    return None;
                }
            } else {
                // An exact upper bound is outside the interval.
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5_bits(i) - ENTRY_BITS);
        let mul = POW5[i as usize];
        [vr, vp, vm] = [mv, mv + 2, mv - 2].map(|m| mul_shift(m, mul, shift));
        e10 = q as i32 + e2;
        // The bounds have one trailing zero bit each, so only the value
        // itself can end in q decimal zeros: when mv has q zero bits.
        if q <= 1 || (q < 63 && mv.trailing_zeros() >= q) {
            return None;
        }
    }
    // Drop digits while the interval still holds a shorter number; the
    // last digit dropped rounds the value.
    let (mut removed, mut round_up) = (0, false);
    if vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        [vr, vp, vm] = [vr / 100, vp / 100, vm / 100];
        removed = 2;
    }
    while vp / 10 > vm / 10 {
        round_up = vr % 10 >= 5;
        [vr, vp, vm] = [vr / 10, vp / 10, vm / 10];
        removed += 1;
    }
    // vm itself lies outside the interval.
    Some((vr + u64::from(vr == vm || round_up), e10 + removed))
}

/// `m · mul / 2^shift`, rounded down, for `m < 2^56` and `shift ≥ 64`.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// ⌊log10 2^e⌋ for 0 ≤ e ≤ 1650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// ⌊log10 5^e⌋ for 0 ≤ e ≤ 2620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// The bit length of 5^e, for 0 ≤ e ≤ 3528.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// Significant bits of every power-of-five table entry.
const ENTRY_BITS: i32 = 125;

/// 5^i to [`ENTRY_BITS`] bits, rounded down, for the `i` up to 325 that
/// a normal value below 1 needs (Ryu's `DOUBLE_POW5_SPLIT`).
static POW5: [u128; 326] = pow5_table();

/// 2^(bits(5^q) - 1 + [`ENTRY_BITS`]) / 5^q, rounded down, plus one, for
/// the `q` up to 290 that a value of 1 or more needs (the first entries
/// of Ryu's `DOUBLE_POW5_INV_SPLIT`, which runs on to 341).
static POW5_INV: [u128; 291] = pow5_inv_table();

/// 64-bit limbs, low first, of the exact integers the tables are cut
/// from: 5^325 has 755 bits, and the inverse table divides 2^831.
const LIMBS: usize = 13;

/// Limb `i` of `n`, zero past its end.
const fn limb(n: &[u64; LIMBS], i: usize) -> u128 {
    if i < LIMBS {
        n[i] as u128
    } else {
        0
    }
}

/// The 128 bits of `n` from bit `from` up.
const fn bits_from(n: &[u64; LIMBS], from: usize) -> u128 {
    let (i, bit) = (from / 64, from % 64);
    let low = (limb(n, i) | limb(n, i + 1) << 64) >> bit;
    if bit == 0 {
        low
    } else {
        low | limb(n, i + 2) << (128 - bit)
    }
}

const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = pow5_bits(i as i32);
        table[i] = if len <= ENTRY_BITS {
            bits_from(&pow, 0) << (ENTRY_BITS - len)
        } else {
            bits_from(&pow, (len - ENTRY_BITS) as usize)
        };
        let mut carry = 0;
        let mut k = 0;
        while k < LIMBS {
            let wide = pow[k] as u128 * 5 + carry;
            pow[k] = wide as u64;
            carry = wide >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 291] {
    const TOP: usize = 64 * LIMBS - 1;
    let mut table = [0; 291];
    // ⌊2^TOP / 5^q⌋: rounding down after each division by 5 rounds the
    // whole quotient down, so it stays exact.
    let mut quotient = [0; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < table.len() {
        let exp = (pow5_bits(q as i32) - 1 + ENTRY_BITS) as usize;
        table[q] = bits_from(&quotient, TOP - exp) + 1;
        let mut rem = 0;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let wide = rem << 64 | quotient[k] as u128;
            quotient[k] = (wide / 5) as u64;
            rem = wide % 5;
        }
        q += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_hold_the_powers_of_five() {
        for (i, &entry) in POW5.iter().enumerate().take(56) {
            let pow = 5u128.pow(i as u32);
            let len = 128 - pow.leading_zeros() as i32;
            assert_eq!(len, pow5_bits(i as i32));
            let want = if len <= ENTRY_BITS {
                pow << (ENTRY_BITS - len)
            } else {
                pow >> (len - ENTRY_BITS)
            };
            assert_eq!(entry, want, "5^{i}");
        }
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        assert_eq!(POW5_INV[1], (1 << 127) / 5 + 1);
        // Every entry has exactly ENTRY_BITS bits, as Ryu's shifts assume
        // (the first inverse is 2^125 + 1).
        for &entry in POW5.iter().chain(&POW5_INV[1..]) {
            assert_eq!(128 - entry.leading_zeros() as i32, ENTRY_BITS);
        }
    }

    #[test]
    fn the_fast_path_decides_nearly_every_trace_time() {
        let mut state = 0x7e57_u64;
        let decided = (0..10_000)
            .filter(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let v = (state >> 11) as f64 / (1u64 << 53) as f64 * 1e3;
                shortest(v, &mut [0; LAYOUT_BYTES]).is_some()
            })
            .count();
        assert!(decided > 9_900, "{decided}");
        // Zero, a subnormal, powers of two, the exact branch below and
        // above 2^54, and layouts past the buffer.
        for v in [0.0, f64::from_bits(1), 0.5, 1024.0, 1.5, 3.0, 1e22, 1e40, 1e-40] {
            assert_eq!(shortest(v, &mut [0; LAYOUT_BYTES]), None, "{v}");
        }
    }
}
