//! Two-state bit-vector values.
//!
//! The simulator is two-state (no `x`/`z`): registers power up at zero, which is the
//! behaviour SymbiYosys-style bounded checks assume with `--reset-zero` style options.
//! Values are stored as `u64` with an explicit width; every operation masks its result
//! to the proper width so overflow semantics match Verilog's modular arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A value together with its bit width (1 to 64 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Value {
    bits: u64,
    width: u32,
}

impl Value {
    /// Maximum supported width in bits.
    pub(crate) const MAX_WIDTH: u32 = 64;

    /// Creates a value, masking `bits` to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64 bits (`Value::MAX_WIDTH`).
    pub fn new(bits: u64, width: u32) -> Self {
        assert!(
            (1..=Self::MAX_WIDTH).contains(&width),
            "value width must be in 1..=64, got {width}"
        );
        Self {
            bits: bits & mask(width),
            width,
        }
    }

    /// A single-bit value from a boolean.
    pub fn bit(b: bool) -> Self {
        Self::new(u64::from(b), 1)
    }

    /// A zero value of the given width.
    pub fn zero(width: u32) -> Self {
        Self::new(0, width)
    }

    /// What the slot of a name the design never declared holds until something writes
    /// it.  The reference interpreter has no map entry then, which differs from a
    /// stored 1-bit zero in two places (a part-select write, the settle fixpoint
    /// test); everything that reads a value maps this marker to a 1-bit zero first.
    pub(crate) const ABSENT: Value = Value { bits: 0, width: 0 };

    /// `None` for the [`Value::ABSENT`] marker.
    pub(crate) fn present(self) -> Option<Value> {
        (self.width != 0).then_some(self)
    }

    /// The raw bits (already masked to the width).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// `true` when any bit is set (Verilog truthiness).
    pub(crate) fn is_true(&self) -> bool {
        self.bits != 0
    }

    /// Reinterprets the value at a different width (truncating or zero-extending).
    pub fn resize(&self, width: u32) -> Value {
        Value::new(self.bits, width)
    }

    /// Extracts a single bit as a 1-bit value; out-of-range indices read as zero.
    pub(crate) fn extract_bit(&self, index: u32) -> Value {
        if index >= self.width {
            Value::bit(false)
        } else {
            Value::bit((self.bits >> index) & 1 == 1)
        }
    }

    /// Extracts the inclusive bit range `[msb:lsb]`.
    pub(crate) fn extract_range(&self, msb: u32, lsb: u32) -> Value {
        let (hi, lo) = if msb >= lsb { (msb, lsb) } else { (lsb, msb) };
        let width = hi - lo + 1;
        Value::new(self.bits >> lo, width.min(Self::MAX_WIDTH))
    }

    /// Writes a single bit, returning the updated value; out-of-range writes are ignored.
    pub(crate) fn with_bit(&self, index: u32, bit: bool) -> Value {
        if index >= self.width {
            return *self;
        }
        let cleared = self.bits & !(1u64 << index);
        Value::new(cleared | (u64::from(bit) << index), self.width)
    }

    /// Writes the inclusive range `[msb:lsb]` from `value`, returning the updated value.
    pub(crate) fn with_range(&self, msb: u32, lsb: u32, value: u64) -> Value {
        let (hi, lo) = if msb >= lsb { (msb, lsb) } else { (lsb, msb) };
        if lo >= self.width {
            return *self;
        }
        let hi = hi.min(self.width - 1);
        let field_width = hi - lo + 1;
        let field_mask = mask(field_width) << lo;
        let new_bits = (self.bits & !field_mask) | ((value & mask(field_width)) << lo);
        Value::new(new_bits, self.width)
    }

    /// Reduction AND of all bits.
    pub(crate) fn reduce_and(&self) -> Value {
        Value::bit(self.bits == mask(self.width))
    }

    /// Reduction OR of all bits.
    pub(crate) fn reduce_or(&self) -> Value {
        Value::bit(self.bits != 0)
    }

    /// Reduction XOR (parity) of all bits.
    pub(crate) fn reduce_xor(&self) -> Value {
        Value::bit(self.bits.count_ones() % 2 == 1)
    }

    /// Bitwise complement within the value's width.
    pub fn not(&self) -> Value {
        Value::new(!self.bits, self.width)
    }

    /// Two's-complement negation within the value's width.
    pub fn neg(&self) -> Value {
        Value::new(self.bits.wrapping_neg(), self.width)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'d{}", self.width, self.bits)
    }
}

/// Mask with the low `width` bits set.
pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Width-aware binary operations used by the expression evaluator.
pub mod ops {
    use super::{mask, Value};

    fn arith_width(a: Value, b: Value) -> u32 {
        a.width().max(b.width())
    }

    /// Modular addition at the wider operand width.
    pub fn add(a: Value, b: Value) -> Value {
        Value::new(a.bits().wrapping_add(b.bits()), arith_width(a, b))
    }

    /// Modular subtraction at the wider operand width.
    pub fn sub(a: Value, b: Value) -> Value {
        Value::new(a.bits().wrapping_sub(b.bits()), arith_width(a, b))
    }

    /// Modular multiplication at the wider operand width.
    pub(crate) fn mul(a: Value, b: Value) -> Value {
        Value::new(a.bits().wrapping_mul(b.bits()), arith_width(a, b))
    }

    /// Division; division by zero yields zero (the two-state stand-in for `x`).
    pub fn div(a: Value, b: Value) -> Value {
        let q = if b.bits() == 0 {
            0
        } else {
            a.bits() / b.bits()
        };
        Value::new(q, arith_width(a, b))
    }

    /// Remainder; modulo zero yields zero.
    pub(crate) fn rem(a: Value, b: Value) -> Value {
        let r = if b.bits() == 0 {
            0
        } else {
            a.bits() % b.bits()
        };
        Value::new(r, arith_width(a, b))
    }

    /// Logical shift left at the left operand's width.
    pub(crate) fn shl(a: Value, b: Value) -> Value {
        let shift = b.bits().min(64) as u32;
        let bits = if shift >= 64 { 0 } else { a.bits() << shift };
        Value::new(bits, a.width())
    }

    /// Logical shift right at the left operand's width.
    pub(crate) fn shr(a: Value, b: Value) -> Value {
        let shift = b.bits().min(64) as u32;
        let bits = if shift >= 64 { 0 } else { a.bits() >> shift };
        Value::new(bits, a.width())
    }

    /// Bitwise AND at the wider operand width.
    pub(crate) fn bit_and(a: Value, b: Value) -> Value {
        Value::new(a.bits() & b.bits(), arith_width(a, b))
    }

    /// Bitwise OR at the wider operand width.
    pub(crate) fn bit_or(a: Value, b: Value) -> Value {
        Value::new(a.bits() | b.bits(), arith_width(a, b))
    }

    /// Bitwise XOR at the wider operand width.
    pub(crate) fn bit_xor(a: Value, b: Value) -> Value {
        Value::new(a.bits() ^ b.bits(), arith_width(a, b))
    }

    /// Unsigned comparison operators returning 1-bit results.
    pub(crate) fn lt(a: Value, b: Value) -> Value {
        Value::bit(a.bits() < b.bits())
    }
    /// `<=`
    pub(crate) fn le(a: Value, b: Value) -> Value {
        Value::bit(a.bits() <= b.bits())
    }
    /// `>`
    pub(crate) fn gt(a: Value, b: Value) -> Value {
        Value::bit(a.bits() > b.bits())
    }
    /// `>=`
    pub(crate) fn ge(a: Value, b: Value) -> Value {
        Value::bit(a.bits() >= b.bits())
    }
    /// `==`
    pub fn eq(a: Value, b: Value) -> Value {
        Value::bit(a.bits() == b.bits())
    }
    /// `!=`
    pub(crate) fn ne(a: Value, b: Value) -> Value {
        Value::bit(a.bits() != b.bits())
    }
    /// `&&`
    pub(crate) fn logical_and(a: Value, b: Value) -> Value {
        Value::bit(a.is_true() && b.is_true())
    }
    /// `||`
    pub(crate) fn logical_or(a: Value, b: Value) -> Value {
        Value::bit(a.is_true() || b.is_true())
    }

    /// Concatenation `{a, b}` where `a` occupies the high bits.
    pub fn concat(a: Value, b: Value) -> Value {
        let width = (a.width() + b.width()).min(Value::MAX_WIDTH);
        let bits = (a.bits() << b.width().min(63)) | b.bits();
        Value::new(bits & mask(width), width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_on_construction() {
        let v = Value::new(0xFFFF, 4);
        assert_eq!(v.bits(), 0xF);
        assert_eq!(v.width(), 4);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_panics() {
        let _ = Value::new(1, 0);
    }

    #[test]
    fn truthiness() {
        assert!(Value::new(2, 4).is_true());
        assert!(!Value::zero(8).is_true());
    }

    #[test]
    fn bit_extraction_and_update() {
        let v = Value::new(0b1010, 4);
        assert!(v.extract_bit(1).is_true());
        assert!(!v.extract_bit(0).is_true());
        assert!(!v.extract_bit(9).is_true());
        assert_eq!(v.with_bit(0, true).bits(), 0b1011);
        assert_eq!(v.with_bit(9, true).bits(), 0b1010);
    }

    #[test]
    fn range_extraction_and_update() {
        let v = Value::new(0b1100_1010, 8);
        assert_eq!(v.extract_range(7, 4).bits(), 0b1100);
        assert_eq!(v.extract_range(3, 0).bits(), 0b1010);
        assert_eq!(v.with_range(3, 0, 0b0101).bits(), 0b1100_0101);
        assert_eq!(v.with_range(7, 4, 0xFF).bits(), 0b1111_1010);
    }

    #[test]
    fn reductions() {
        assert!(Value::new(0b1111, 4).reduce_and().is_true());
        assert!(!Value::new(0b1110, 4).reduce_and().is_true());
        assert!(Value::new(0b0100, 4).reduce_or().is_true());
        assert!(Value::new(0b0110, 4).reduce_xor().bits() == 0);
        assert!(Value::new(0b0111, 4).reduce_xor().is_true());
    }

    #[test]
    fn arithmetic_wraps_at_width() {
        let a = Value::new(0xF, 4);
        let b = Value::new(0x1, 4);
        assert_eq!(ops::add(a, b).bits(), 0);
        assert_eq!(ops::sub(Value::new(0, 4), b).bits(), 0xF);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let a = Value::new(9, 4);
        assert_eq!(ops::div(a, Value::zero(4)).bits(), 0);
        assert_eq!(ops::rem(a, Value::zero(4)).bits(), 0);
    }

    #[test]
    fn shifts_keep_lhs_width() {
        let a = Value::new(0b0011, 4);
        assert_eq!(ops::shl(a, Value::new(2, 4)).bits(), 0b1100);
        assert_eq!(ops::shl(a, Value::new(3, 4)).bits(), 0b1000);
        assert_eq!(ops::shr(a, Value::new(1, 4)).bits(), 0b0001);
        assert_eq!(ops::shl(a, Value::new(70, 8)).bits(), 0);
    }

    #[test]
    fn comparisons_are_one_bit() {
        let a = Value::new(3, 4);
        let b = Value::new(5, 4);
        assert!(ops::lt(a, b).is_true());
        assert!(ops::le(a, a).is_true());
        assert!(ops::ne(a, b).is_true());
        assert_eq!(ops::eq(a, b).width(), 1);
    }

    #[test]
    fn concat_orders_operands() {
        let hi = Value::new(0b10, 2);
        let lo = Value::new(0b01, 2);
        let joined = ops::concat(hi, lo);
        assert_eq!(joined.bits(), 0b1001);
        assert_eq!(joined.width(), 4);
    }

    #[test]
    fn complement_and_negation() {
        let v = Value::new(0b0101, 4);
        assert_eq!(v.not().bits(), 0b1010);
        assert_eq!(Value::new(1, 4).neg().bits(), 0xF);
    }

    #[test]
    fn display_format() {
        assert_eq!(Value::new(10, 4).to_string(), "4'd10");
    }
}
